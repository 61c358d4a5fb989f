"""Exact arithmetic: sparse multivariate polynomials and rational functions.

Monomials.  Each monomial is one int that packs its exponent vector: one
field of `width` bits per variable of the VarTable, the first variable in
the highest field, and above them an unbounded field holding the total
degree.  Comparing two packed ints therefore compares the monomials in
graded lexicographic order, and multiplying two monomials adds their ints.
The top bit of every variable field is a guard bit that no stored monomial
sets (every exponent is below 2^(width-1)).  So the sum of two monomials
never carries from one field into the next, and b divides a exactly when
`(a - b) & guard == 0`, because a field that borrows sets its guard bit.

Field sizing.  A table's fields start wide enough for a whole monomial,
degree field included, to fit 64 bits, but never narrower than 8 bits
(`VarTable._layout`).  An exponent that does not fit below the guard bit
makes the polynomial repack into fields twice as wide: a constructor picks
the width its largest exponent needs, and a product whose exponents reach a
guard bit (exact, since nothing carried) is repacked before it is stored.
Operands of different widths are repacked to the wider one.  Nothing wraps.

Coefficients.  A polynomial is stored as a rational content n/d times a
primitive integer polynomial: integer coefficients with gcd 1 and a
positive leading coefficient, n/d in lowest terms with d > 0.  This normal
form is unique, so equality compares the stored parts, and the hot loops
run on Python ints.  By Gauss's lemma a product of primitive polynomials is
primitive, and when one primitive polynomial divides another over Q the
quotient is a primitive integer polynomial, so exact division is decided
over Z.  Coefficients that leave the module are arbitrary-precision
rationals (gmpy2.mpq when available, fractions.Fraction otherwise); no
floating point is used anywhere.

Terms are kept in descending graded-lex order.  Exact division is the heap
division of Monagan and Pearce (CASC 2007): a heap of pending products of
the quotient and the divisor yields each leading term of the remainder
without rescanning it.  Rational functions are stored as a num/den pair;
normalization scales the denominator's leading coefficient to +1 and
cancels cheap common factors (monomial content, and exact polynomial
division when it succeeds).  Full gcd reduction is deliberately not
attempted; the normative equality test is cross-multiplication.

Residues.  `Residue` is an element of the prime field GF(2^61 - 1), one
int per value; eval-mode checks map their seeded rational points into it
with `Residue.of`, and the scalar-generic layers above then never see a
growing rational.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from functools import reduce
from heapq import heappop, heappush, heapreplace
from itertools import combinations
from math import gcd, lcm, prod
from operator import or_

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ

__all__ = [
    "QQ",
    "VarTable",
    "MultiPoly",
    "RatFunc",
    "Residue",
    "PRIME",
    "RingError",
    "NonExactDivision",
    "exact_divide",
    "try_exact_divide",
    "determinant",
    "laplace",
    "clear_denominators",
    "cleared_quotient",
    "random_rational",
    "distinct_rationals",
    "is_zero",
    "poly_to_json",
    "poly_from_json",
    "ratfunc_to_json",
    "ratfunc_from_json",
]


class RingError(Exception):
    """Base error for the exact-arithmetic layer."""


class NonExactDivision(RingError):
    """Raised when a division required to be exact leaves a remainder."""


def _is_rational(x):
    return isinstance(x, (int, numbers.Rational))


def _ratio(x):
    """(numerator, denominator) of a rational as Python ints."""
    return int(x.numerator), int(x.denominator)


class _Layout:
    """How exponent vectors over one table pack into ints at one width."""

    __slots__ = ("width", "shifts", "mask", "limit", "guard", "deg_shift")

    def __init__(self, nvars, width):
        self.width = width
        self.shifts = tuple(width * i for i in reversed(range(nvars)))
        self.mask = (1 << width) - 1
        self.limit = 1 << (width - 1)      # exponents stay below the guard
        self.guard = sum(self.limit << s for s in self.shifts)
        self.deg_shift = width * nvars

    def pack(self, exps):
        packed = sum(exps) << self.deg_shift
        for k, s in zip(exps, self.shifts):
            packed |= k << s
        return packed

    def unpack(self, mono):
        mask = self.mask
        return tuple((mono >> s) & mask for s in self.shifts)


class VarTable:
    """Ordered, immutable table of variable names.

    The index of each name is stable, so exponent tuples from different
    polynomials over the same table are directly comparable.
    """

    __slots__ = ("names", "_index", "_layouts")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise RingError(f"duplicate variable names in {names}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}
        self._layouts = {}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable({list(self.names)})"

    def _layout(self, top=0):
        """The narrowest layout whose fields hold exponents up to `top`.

        Fields start wide enough for the packed monomial, degree field
        included, to fit 64 bits (but at least 8 bits), and double as
        needed.
        """
        width = max(8, 64 // (len(self.names) + 1))
        while top >> (width - 1):
            width *= 2
        lay = self._layouts.get(width)
        if lay is None:
            lay = self._layouts[width] = _Layout(len(self.names), width)
        return lay

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise RingError(f"unknown variable {name!r}") from None

    def var(self, name):
        """The polynomial consisting of the single variable `name`."""
        lay = self._layout()
        i = self.index(name)
        return _poly(self, lay, [(1 << lay.deg_shift) | (1 << lay.shifts[i])],
                     [1], 1, 1)

    def const(self, value):
        """The constant polynomial `value`."""
        n, d = _ratio(value if _is_rational(value) else QQ(value))
        if n == 0:
            return self.zero()
        return _poly(self, self._layout(), [0], [1], n, d)

    def zero(self):
        return _poly(self, self._layout(), [], [], 0, 1)

    def one(self):
        return _poly(self, self._layout(), [0], [1], 1, 1)


def canonical_vartable(n_u=0, n_w=0, free_params=("t", "a", "b", "c", "d"),
                       beta=False):
    """Variable table in the canonical order: model parameters, then beta,
    then spectral parameters u_j, then inhomogeneities w_j."""
    names = list(free_params)
    if beta:
        names.append("beta")
    names += [f"u{j}" for j in range(1, n_u + 1)]
    names += [f"w{j}" for j in range(1, n_w + 1)]
    return VarTable(names)


def _poly(vt, lay, exps, coeffs, n, d):
    """The MultiPoly (n/d) * sum(coeffs[i] * x^exps[i]).

    `exps` are packed monomials in descending order and `coeffs` a primitive
    integer list (gcd 1, first entry positive); n/d is in lowest terms with
    d > 0.  The zero polynomial is ([], [], 0, 1).
    """
    p = object.__new__(MultiPoly)
    p.vars = vt
    p._lay = lay
    p._e = exps
    p._c = coeffs
    p._n = n
    p._d = d
    return p


def _normalized(vt, lay, exps, ints, n, d):
    """_poly for nonzero integer coefficients, any content, and n/d, d > 0."""
    g = gcd(*ints)
    if ints[0] < 0:
        g = -g
    if g != 1:
        ints = [c // g for c in ints]
        n *= g
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return _poly(vt, lay, exps, ints, n, d)


def _scaled(p, n, d):
    """p * (n/d) for ints n, d with d != 0."""
    if not n or not p._e:
        return p.vars.zero()
    g = gcd(n, d)
    n, d = n // g, d // g
    g1, g2 = gcd(p._n, d), gcd(n, p._d)
    n, d = (p._n // g1) * (n // g2), (p._d // g2) * (d // g1)
    if d < 0:
        n, d = -n, -d
    return _poly(p.vars, p._lay, p._e, p._c, n, d)


def _coeff(p, c):
    """(numerator, denominator) of the coefficient n/d * c in lowest terms."""
    g = gcd(c, p._d)
    return c // g * p._n, p._d // g


def _repacked(p, lay):
    """p with its monomials repacked into the layout `lay`."""
    if p._lay.width == lay.width:
        return p
    unpack, pack = p._lay.unpack, lay.pack
    return _poly(p.vars, lay, [pack(unpack(e)) for e in p._e], p._c, p._n,
                 p._d)


def _same_layout(a, b):
    """a and b repacked, if need be, to the wider of their layouts."""
    if a._lay is b._lay:
        return a, b
    if a._lay.width < b._lay.width:
        return _repacked(a, b._lay), b
    return a, _repacked(b, a._lay)


class _Terms(Mapping):
    """Read-only view of a polynomial as {exponent tuple: coefficient}."""

    __slots__ = ("_p", "_index")

    def __init__(self, p):
        self._p = p
        self._index = None

    def __len__(self):
        return len(self._p._e)

    def __iter__(self):
        return map(self._p._lay.unpack, self._p._e)

    def __getitem__(self, exps):
        if self._index is None:
            self._index = dict(zip(self._p._e, range(len(self._p._e))))
        lay = self._p._lay
        if len(exps) != len(lay.shifts) or max(exps, default=0) >= lay.limit:
            raise KeyError(exps)
        i = self._index.get(lay.pack(exps))
        if i is None:
            raise KeyError(exps)
        return QQ(*_coeff(self._p, self._p._c[i]))


class MultiPoly:
    """Sparse multivariate polynomial with big-rational coefficients.

    Stored as content times primitive part, as the module docstring
    describes; `_poly` lists the fields.  Treated as immutable: all
    operations return new objects.  `terms` views the polynomial as
    {exponent tuple: coefficient}.
    """

    __slots__ = ("vars", "_lay", "_e", "_c", "_n", "_d")

    def __init__(self, vartable, terms):
        items = []
        for exps, c in terms.items():
            if len(exps) != len(vartable) or any(
                    not isinstance(k, int) or k < 0 for k in exps):
                raise RingError(f"bad exponent vector {exps!r}")
            if c != 0:
                items.append((exps, _ratio(c if _is_rational(c) else QQ(c))))
        lay = vartable._layout(max((max(e, default=0) for e, _ in items),
                                   default=0))
        self.vars = vartable
        self._lay = lay
        if not items:
            self._e, self._c, self._n, self._d = [], [], 0, 1
            return
        den = lcm(*(d for _, (_, d) in items))
        packed = sorted(((lay.pack(e), n * (den // d)) for e, (n, d) in items),
                        reverse=True)
        p = _normalized(vartable, lay, [e for e, _ in packed],
                        [c for _, c in packed], 1, den)
        self._e, self._c, self._n, self._d = p._e, p._c, p._n, p._d

    @property
    def terms(self):
        return _Terms(self)

    # -- construction helpers -------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise RingError("variable-table mismatch")
            return other
        if _is_rational(other):
            return self.vars.const(other)
        return None

    # -- queries --------------------------------------------------------

    def is_zero(self):
        return not self._e

    def is_constant(self):
        return not self._e or self._e[0] == 0

    def constant_value(self):
        if not self.is_constant():
            raise RingError("not a constant polynomial")
        return QQ(self._n, self._d)

    def degree_in(self, name):
        if not self._e:
            return -1
        s, mask = self._lay.shifts[self.vars.index(name)], self._lay.mask
        return max((e >> s) & mask for e in self._e)

    def leading(self):
        """(exponents, coefficient) of the graded-lex leading term."""
        if not self._e:
            raise RingError("zero polynomial has no leading term")
        return self._lay.unpack(self._e[0]), QQ(*_coeff(self, self._c[0]))

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = _same_layout(self, other)
        if not a._e or not b._e:
            a = a if a._e else b
            return _poly(a.vars, a._lay, a._e, a._c, a._n, a._d)
        # a + b = (h/den) * (sa*A + sb*B) over the primitive parts A, B
        g = gcd(a._d, b._d)
        sa, sb, den = a._n * (b._d // g), b._n * (a._d // g), a._d // g * b._d
        h = gcd(sa, sb)
        sa //= h
        sb //= h
        acc = dict(zip(a._e, a._c if sa == 1 else [sa * c for c in a._c]))
        get = acc.get
        for e, c in zip(b._e, b._c):
            acc[e] = get(e, 0) + sb * c
        # two descending runs: the sort merges them in linear time
        exps = sorted((e for e, c in acc.items() if c), reverse=True)
        if not exps:
            return a.vars.zero()
        return _normalized(a.vars, a._lay, exps, [acc[e] for e in exps], h,
                           den)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.vars, self._lay, self._e, self._c, -self._n,
                     self._d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = _same_layout(self, other)
        if not a._e or not b._e:
            return a.vars.zero()
        if len(a._e) > len(b._e):
            a, b = b, a
        exps, coeffs = _product(a._e, a._c, b._e, b._c)
        lay = a._lay
        if reduce(or_, exps) & lay.guard:
            # a field reached its guard bit: the sums are exact (nothing
            # carried), but the result needs wider fields
            wide = a.vars._layout(lay.limit)
            exps = [wide.pack(lay.unpack(e)) for e in exps]
            lay = wide
        # primitive times primitive is primitive (Gauss), leading term > 0
        g1, g2 = gcd(a._n, b._d), gcd(b._n, a._d)
        return _poly(a.vars, lay, exps, coeffs,
                     (a._n // g1) * (b._n // g2), (a._d // g2) * (b._d // g1))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise RingError("polynomial power must be a non-negative int")
        result = self.vars.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        if _is_rational(other):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            n, d = _ratio(other)
            return _scaled(self, d, n)
        if isinstance(other, MultiPoly):
            return RatFunc(self, other)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            if self.vars != other.vars:
                return False
            a, b = _same_layout(self, other)
            return (a._n == b._n and a._d == b._d and a._e == b._e
                    and a._c == b._c)
        if _is_rational(other):
            if other == 0:
                return not self._e
            return self._e == [0] and (self._n, self._d) == _ratio(other)
        return NotImplemented

    # -- evaluation / substitution --------------------------------------

    def evaluate(self, point):
        """Evaluate at a map name -> rational; every variable must be bound.

        A value n_i/d_i of a variable of degree D_i enters through the table
        n_i^k d_i^(D_i - k), so the terms sum over Z, and the common
        denominator prod d_i^(D_i) and the content are applied once.
        """
        vals = [_ratio(QQ(point[n])) for n in self.vars.names]
        exps = [self._lay.unpack(e) for e in self._e]
        degs = [max(ks) for ks in zip(*exps)]
        tables = [[n ** k * d ** (deg - k) for k in range(deg + 1)]
                  for (n, d), deg in zip(vals, degs)]
        total, den = 0, self._d
        for ks, c in zip(exps, self._c):
            for table, k in zip(tables, ks):
                c *= table[k]
            total += c
        for (_, d), deg in zip(vals, degs):
            den *= d ** deg
        return QQ(total * self._n, den)

    def substitute(self, bindings):
        """Simultaneously substitute variables by rational values.

        Unbound variables persist.  Returns a RatFunc over the same table.
        """
        vals = {}
        for name, val in bindings.items():
            if not _is_rational(val):
                raise RingError(f"cannot substitute value {val!r}")
            vals[self.vars.index(name)] = QQ(val)
        unpack = self._lay.unpack
        terms = {}
        for e, c in zip(self._e, self._c):
            exps = list(unpack(e))
            coeff = QQ(*_coeff(self, c))
            for i, v in vals.items():
                coeff *= v ** exps[i]
                exps[i] = 0
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        return RatFunc(MultiPoly(self.vars, terms))

    # -- rendering ------------------------------------------------------

    def __str__(self):
        if not self._e:
            return "0"
        parts = []
        unpack = self._lay.unpack
        for e, c in zip(self._e, self._c):
            n, d = _coeff(self, c)
            coeff = str(n) if d == 1 else f"{n}/{d}"
            factors = []
            for name, k in zip(self.vars.names, unpack(e)):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                body = coeff
            elif coeff == "1":
                body = "*".join(factors)
            elif coeff == "-1":
                body = "-" + "*".join(factors)
            else:
                body = coeff + "*" + "*".join(factors)
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"MultiPoly({self})"


def _product(ae, ac, be, bc):
    """Terms of a*b for nonzero term lists, `a` the shorter one.

    Like terms are summed in a dict keyed by packed monomial, and one sort
    puts the result in descending order.  In CPython this runs about twice
    as fast as Johnson's heap product, which spends its time in heap
    operations on tuples.
    """
    if len(ae) == 1:
        e0, c0 = ae[0], ac[0]
        return [e0 + e for e in be], [c0 * c for c in bc] if c0 != 1 else bc
    acc = {}
    get = acc.get
    for ea, ca in zip(ae, ac):
        for eb, cb in zip(be, bc):
            e = ea + eb
            acc[e] = get(e, 0) + ca * cb
    exps = sorted((e for e, c in acc.items() if c), reverse=True)
    return exps, [acc[e] for e in exps]


def _heap_quotient(ae, ac, be, bc, guard):
    """Terms of a/b if b divides a exactly, else None; b not constant.

    Both term lists are primitive integer polynomials, so an exact quotient
    has integer coefficients (Gauss's lemma) and a coefficient that b's
    leading coefficient does not divide proves a remainder.  Monagan-Pearce
    division: the heap holds the pending products q_i*b_j (j >= 1) of the
    quotient found so far, so the remainder's leading term is the larger of
    the next term of a and the heap top, found without scanning the
    remainder.  The first leading term that b's leading term does not divide
    ends the division, as does a quotient term below the lowest one an exact
    quotient can have (the lowest term of a over the lowest term of b).
    """
    b0e, b0c = be[0], bc[0]
    q_low = ae[-1] - be[-1]
    if q_low & guard or ac[-1] % bc[-1]:
        return None
    nb, na = len(be), len(ae)
    qe, qc = [], []
    heap = []
    ia = 0
    while ia < na or heap:
        if heap and (ia == na or -heap[0][0] > ae[ia]):
            key = heap[0][0]
            acc = 0
        else:
            key = -ae[ia]
            acc = ac[ia]
            ia += 1
        while heap and heap[0][0] == key:
            _, i, j = heap[0]
            acc -= qc[i] * bc[j]
            j += 1
            if j < nb:
                heapreplace(heap, (-qe[i] - be[j], i, j))
            else:
                heappop(heap)
        if not acc:
            continue
        q = -key - b0e
        if q & guard or q < q_low:
            return None
        c, r = divmod(acc, b0c)
        if r:
            return None
        if nb > 1:
            heappush(heap, (-q - be[1], len(qe), 1))
        qe.append(q)
        qc.append(c)
    return qe, qc


def try_exact_divide(num, den):
    """Quotient num/den if den divides num exactly, else None.

    Single-divisor polynomial division under graded lex: exactness holds iff
    no leading-term step ever fails, so the first failure aborts cheaply.
    """
    if num.vars != den.vars:
        raise RingError("variable-table mismatch")
    if den.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if num.is_zero():
        return num.vars.zero()
    if den.is_constant():
        return _scaled(num, den._d, den._n)
    num, den = _same_layout(num, den)
    terms = _heap_quotient(num._e, num._c, den._e, den._c, num._lay.guard)
    if terms is None:
        return None
    return _scaled(_poly(num.vars, num._lay, *terms, num._n, num._d),
                   den._d, den._n)


def exact_divide(num, den):
    """num/den with the remainder asserted to be zero."""
    q = try_exact_divide(num, den)
    if q is None:
        raise NonExactDivision("polynomial division left a remainder")
    return q


class RatFunc:
    """Quotient of two MultiPoly over the same variable table.

    Normalized so the denominator's graded-lex leading coefficient is +1;
    cheap cancellations (monomial content, exact division) are applied.
    Equality is decided by cross-multiplication, which agrees with the
    normalized form whenever both cancel fully.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = num.vars.one()
        if num.vars != den.vars:
            raise RingError("variable-table mismatch")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = num
            self.den = num.vars.one()
            return
        num, den = _cross_cancel(*_cancel_monomial_content(num, den))
        lc_n, lc_d = den._c[0] * den._n, den._d
        if lc_n != lc_d:
            num = _scaled(num, lc_d, lc_n)
            den = _scaled(den, lc_d, lc_n)
        self.num = num
        self.den = den

    @property
    def vars(self):
        return self.num.vars

    # -- queries --------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.is_constant()

    def as_poly(self):
        """The underlying polynomial; raises if a denominator survives."""
        if self.den.is_constant():
            return self.num / self.den.constant_value()
        raise NonExactDivision("rational function is not a polynomial")

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.vars != self.vars:
                raise RingError("variable-table mismatch")
            return other
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise RingError("variable-table mismatch")
            return RatFunc(other, self.vars.one())
        if _is_rational(other):
            return RatFunc(self.vars.const(other), self.vars.one())
        return None

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        q = try_exact_divide(other.den, self.den)
        if q is not None:
            return RatFunc(self.num * q + other.num, other.den)
        q = try_exact_divide(self.den, other.den)
        if q is not None:
            return RatFunc(self.num + other.num * q, self.den)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n1, d2 = _cross_cancel(self.num, other.den)
        n2, d1 = _cross_cancel(other.num, self.den)
        return RatFunc(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RatFunc(other.den, other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise RingError("power must be an int")
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den ** (-n), self.num ** (-n))
        return RatFunc(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    # -- evaluation / substitution --------------------------------------

    def evaluate(self, point):
        d = self.den.evaluate(point)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(point) / d

    def substitute(self, bindings):
        den = self.den.substitute(bindings)
        if den.is_zero():
            raise ZeroDivisionError("substitution produced a zero denominator")
        return self.num.substitute(bindings) / den

    def __str__(self):
        if self.is_poly():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def _cancel_monomial_content(num, den):
    """Cancel the largest common monomial factor of nonzero num and den."""
    num, den = _same_layout(num, den)
    lay = num._lay
    guard, top, fields = lay.guard, lay.width - 1, (1 << lay.deg_shift) - 1
    common = den._e[-1] & fields
    for p in (den, num):
        for e in p._e:
            if not common:
                return num, den
            # fieldwise min: the guard bit of (common | guard) - e survives
            # in the fields where common >= e, and spreads to a field mask
            ge = ((common | guard) - (e & fields)) & guard
            wider = (ge << 1) - (ge >> top)
            common = (e & wider) | (common & ~wider)
    if not common:
        return num, den
    common |= sum(lay.unpack(common)) << lay.deg_shift
    return (_poly(num.vars, lay, [e - common for e in num._e], num._c,
                  num._n, num._d),
            _poly(den.vars, lay, [e - common for e in den._e], den._c,
                  den._n, den._d))


def _cross_cancel(num, den):
    """Opportunistic cancellation of num against den before a product."""
    if den.is_constant() or num.is_zero():
        return num, den
    q = try_exact_divide(num, den)
    if q is not None:
        return q, num.vars.one()
    q = try_exact_divide(den, num)
    if q is not None and not num.is_constant():
        return num.vars.one(), q
    return num, den


# -- the prime field GF(PRIME) ------------------------------------------

PRIME = (1 << 61) - 1


def _operand(x):
    """The int behind a Residue or int operand; None for any other type."""
    if x.__class__ is Residue:
        return x.v
    return x if isinstance(x, int) else None


def _inverse(v):
    if v % PRIME == 0:
        raise ZeroDivisionError("division by zero in GF(2^61-1)")
    return pow(v, -1, PRIME)


class Residue:
    """An element of the prime field GF(PRIME), PRIME = 2^61 - 1.

    Stored as one int in [0, PRIME).  Python ints coerce; every other
    operand type is refused with NotImplemented, so a rational that was not
    first mapped by `Residue.of` raises TypeError instead of being folded
    in.  Comparing with a rational or a ring element raises TypeError too,
    where the identity fallback of `==` would report a mismatch.  A negative
    power is a power of the inverse.
    """

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % PRIME

    @classmethod
    def of(cls, q):
        """The residue of a rational (or int) q."""
        num, den = _ratio(q)
        return cls(num * _inverse(den))

    def is_zero(self):
        return self.v == 0

    def __add__(self, other):
        o = _operand(other)
        return NotImplemented if o is None else Residue(self.v + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = _operand(other)
        return NotImplemented if o is None else Residue(self.v - o)

    def __rsub__(self, other):
        o = _operand(other)
        return NotImplemented if o is None else Residue(o - self.v)

    def __neg__(self):
        return Residue(-self.v)

    def __mul__(self, other):
        o = _operand(other)
        return NotImplemented if o is None else Residue(self.v * o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _operand(other)
        return NotImplemented if o is None else Residue(self.v * _inverse(o))

    def __rtruediv__(self, other):
        o = _operand(other)
        return NotImplemented if o is None else Residue(o * _inverse(self.v))

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        base = self.v if k >= 0 else _inverse(self.v)
        return Residue(pow(base, abs(k), PRIME))

    def __eq__(self, other):
        o = _operand(other)
        if o is not None:
            return (self.v - o) % PRIME == 0
        if _is_rational(other) or isinstance(other, (MultiPoly, RatFunc)):
            raise TypeError("cannot compare a residue with a "
                            f"{other.__class__.__name__}")
        return NotImplemented

    def __hash__(self):
        return hash(self.v)

    def __str__(self):
        return str(self.v)

    def __repr__(self):
        return f"Residue({self.v})"


# -- common denominators and determinants -------------------------------


def clear_denominators(row):
    """A row of scalars over one common denominator: (entries, d).

    Each entry divided by d is the matching scalar of `row`.  A row holding
    a RatFunc clears to MultiPoly entries, lifting its rationals to
    constants, and d is the product of the denominators that do not divide
    the product so far; a row of residues comes back unchanged with d = 1;
    any other row is rational and clears to ints over the lcm of its
    denominators.  Residue rows are recognised first, so they pay for no
    other test.
    """
    if all(x.__class__ is Residue for x in row):
        return list(row), 1
    vt = next((x.vars for x in row if isinstance(x, RatFunc)), None)
    if vt is not None:
        one = vt.one()
        pairs = [(x.num, x.den) if isinstance(x, RatFunc)
                 else (vt.const(x), one) for x in row]
        d = one
        for _, den in pairs:
            if try_exact_divide(d, den) is None:
                d = d * den
        return [num * exact_divide(d, den) for num, den in pairs], d
    ratios = [_ratio(x) for x in row]
    d = lcm(*(den for _, den in ratios))
    return [num * (d // den) for num, den in ratios], d


def cleared_quotient(x, d):
    """x / d for an entry x and denominator d from `clear_denominators`."""
    if isinstance(x, MultiPoly):
        return RatFunc(x, d)
    if isinstance(x, int):
        return QQ(x, d)
    return x


def determinant(matrix):
    """Determinant of a square matrix of scalars, division-free.

    `clear_denominators` puts each row over a common denominator d_i:
    RatFunc rows become polynomials, which avoids the exact polynomial
    divisions of fraction-free elimination that dominate the cost on large
    multivariate entries, and rational rows become ints.  The determinant
    is multilinear in the rows, so it is the `laplace` expansion of the
    cleared rows divided once by the product of the d_i.  Residue rows
    expand as they are, and so does the 0x0 matrix, whose determinant is
    the int 1 (empty product), which coerces into every scalar mode.
    Mixing scalar modes is an error.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise RingError("determinant requires a square matrix")
    flat = [x for row in matrix for x in row]
    if all(x.__class__ is Residue for x in flat):
        return laplace(matrix)
    if (all(isinstance(x, RatFunc) for x in flat)
            or all(_is_rational(x) for x in flat)):
        rows, dens = zip(*map(clear_denominators, matrix))
        return cleared_quotient(laplace(rows), prod(dens))
    raise RingError("determinant entries mix scalar modes")


def laplace(rows):
    """Determinant of square `rows` of ints, polynomials or residues.

    Laplace expansion with dynamic programming over column subsets: the
    minors of the first r rows, keyed by their columns, start from the
    empty minor 1, so the 0x0 determinant is the int 1.  No entry is
    divided.  A minor whose row entries all vanish is zero, and one of those
    entries stands for it.
    """
    n = len(rows)
    minors = {(): 1}
    for r, row in enumerate(rows):
        next_minors = {}
        for cols in combinations(range(n), r + 1):
            acc = None
            for idx, j in enumerate(cols):
                entry = row[j]
                if is_zero(entry):
                    continue
                term = minors[cols[:idx] + cols[idx + 1:]] * entry
                if (r + idx) % 2:
                    term = -term
                acc = term if acc is None else acc + term
            next_minors[cols] = row[cols[0]] if acc is None else acc
        minors = next_minors
    return minors[tuple(range(n))]


# -- seeded rational draws ----------------------------------------------


def random_rational(rng):
    """One seeded rational, numerator and denominator uniform in [1, 10^6]."""
    return QQ(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))


def distinct_rationals(rng, n):
    """n pairwise distinct draws of `random_rational`, in draw order."""
    values = []
    while len(values) < n:
        v = random_rational(rng)
        if v not in values:
            values.append(v)
    return values


def is_zero(v):
    """Exact zero test for any scalar: int, rational, MultiPoly or RatFunc."""
    return v.is_zero() if hasattr(v, "is_zero") else v == 0


# -- JSON serialization -------------------------------------------------


def poly_to_json(p):
    unpack = p._lay.unpack
    terms = [{"coeff": "%d/%d" % _coeff(p, c), "exps": list(unpack(e))}
             for e, c in zip(p._e, p._c)]
    return {"vars": list(p.vars.names), "terms": terms}


def poly_from_json(obj):
    vt = VarTable(obj["vars"])
    terms = {}
    for t in obj["terms"]:
        num, _, den = t["coeff"].partition("/")
        coeff = QQ(int(num), int(den)) if den else QQ(int(num))
        terms[tuple(t["exps"])] = coeff
    return MultiPoly(vt, terms)


def ratfunc_to_json(r):
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def ratfunc_from_json(obj):
    return RatFunc(poly_from_json(obj["num"]), poly_from_json(obj["den"]))

