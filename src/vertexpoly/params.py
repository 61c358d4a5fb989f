"""Model parameter sets for the six-vertex weights.

The weight parameters t, a, b, c, d, e, f must satisfy cd + af = 0 and
t*cd + be = 0 exactly.  The constraint surface is rationally parameterized
by the five free values (t, a, b, c, d): we always derive f = -cd/a and
e = -t*cd/b, which makes invalid parameter sets unrepresentable except
through the explicit `unchecked` constructor.  That constructor serves fault
injection, builds the t = 0 set the Grothendieck degeneration is evaluated
at (which the constructor rejects, since t = 0 and b = 0), attaches
inhomogeneities to a drawn set, and carries a set into another scalar field
(`map`), in each case without deriving e and f again.

A ParamSet is either numeric (big-rational scalars, or `Residue` scalars
once mapped into GF(2^61 - 1) with `map`) or symbolic (RatFunc scalars over
one shared variable table); all scalars in one set share the mode and
downstream computations inherit it.
"""

from __future__ import annotations

import random

from .ring import (QQ, RatFunc, Residue, RingError, canonical_vartable,
                   is_zero, random_rational)

__all__ = ["ParamSet", "ParamError"]


class ParamError(RingError):
    """Invalid model parameters."""


_Q0, _Q1 = QQ(0), QQ(1)
_R0, _R1 = Residue(0), Residue(1)


class ParamSet:
    """The weight parameters, with optional site inhomogeneities w.

    f = -cd/a and e = -tcd/b are derived, so both constraints hold and a
    zero a or b fails the division.  e and f vanish only with t, c or d,
    so only those three are checked to be nonzero; t = 1 is excluded.
    """

    __slots__ = ("t", "a", "b", "c", "d", "e", "f", "w", "symbolic")

    def __init__(self, t, a, b, c, d, w=None):
        self.t, self.a, self.b, self.c, self.d = t, a, b, c, d
        try:
            self.f = -(c * d) / a
            self.e = -(t * c * d) / b
        except ZeroDivisionError:
            raise ParamError("parameters a and b must be nonzero")
        self.w = list(w) if w is not None else None
        self.symbolic = isinstance(t, RatFunc)
        self._validate()

    @classmethod
    def unchecked(cls, t, a, b, c, d, e, f, w=None):
        """Explicit parameters, taken as given with no derivation or check.

        Used for fault injection (a constraint-violating e or f), for the
        t = 0 set (0, 1, 0, 1, 1, -1/beta, -1) of the Grothendieck
        degeneration, which the constructor rejects, to attach
        inhomogeneities w to an existing set, and by `map`.
        """
        obj = object.__new__(cls)
        obj.t, obj.a, obj.b, obj.c, obj.d = t, a, b, c, d
        obj.e, obj.f = e, f
        obj.w = list(w) if w is not None else None
        obj.symbolic = isinstance(t, RatFunc)
        return obj

    def _validate(self):
        for name in ("t", "c", "d"):
            if is_zero(getattr(self, name)):
                raise ParamError(f"parameter {name} must be nonzero")
        if self.t == 1:
            raise ParamError("t = 1 is excluded")

    # -- constructors ---------------------------------------------------

    @classmethod
    def sample(cls, seed, n_w=0):
        """Seeded random numeric parameters on the constraint surface.

        t, a, b, c, d are positive rationals with t not in {0, 1}; the
        derived e, f are then automatically nonzero.  Optionally samples
        n_w inhomogeneities.
        """
        rng = random.Random(seed * 1000003 + 17)
        t = random_rational(rng)
        while t == 1:
            t = random_rational(rng)
        w = [random_rational(rng) for _ in range(n_w)] or None
        if w and len(set(w)) != len(w):
            return cls.sample(seed + 10 ** 9, n_w)
        return cls(t, *(random_rational(rng) for _ in range(4)), w=w)

    @classmethod
    def symbolic_over(cls, vartable, n_w=0):
        """Symbolic parameters (t, a, b, c, d free symbols) over `vartable`.

        The table must contain t, a, b, c, d and, if n_w > 0, the
        inhomogeneity symbols w1..w{n_w}.
        """
        sym = {n: RatFunc(vartable.var(n)) for n in ("t", "a", "b", "c", "d")}
        w = [RatFunc(vartable.var(f"w{j}")) for j in range(1, n_w + 1)] or None
        return cls(sym["t"], sym["a"], sym["b"], sym["c"], sym["d"], w=w)

    @classmethod
    def symbolic_canonical(cls, n_u=0, n_w=0, numeric=None):
        """Parameters over the canonical table with u1..u{n_u}, w1..w{n_w}.

        t, a, b, c, d are free symbols, or the values of the numeric
        ParamSet `numeric` lifted as constants (constraint violations
        intact, which fault injection relies on).  With n_w > 0 the
        inhomogeneities are the symbols w1..w{n_w}.
        """
        vt = canonical_vartable(n_u=n_u, n_w=n_w)
        if numeric is None:
            return cls.symbolic_over(vt, n_w=n_w)
        p = numeric.map(lambda v: RatFunc(vt.const(v)))
        if n_w:
            p.w = [RatFunc(vt.var(f"w{j}")) for j in range(1, n_w + 1)]
        return p

    # -- scalar-mode helpers --------------------------------------------

    @property
    def vars(self):
        if not self.symbolic:
            raise ParamError("numeric ParamSet has no variable table")
        return self.t.vars

    def zero(self):
        if self.symbolic:
            return RatFunc(self.vars.zero())
        return _R0 if self.t.__class__ is Residue else _Q0

    def one(self):
        if self.symbolic:
            return RatFunc(self.vars.one())
        return _R1 if self.t.__class__ is Residue else _Q1

    def spectral(self, n):
        """The symbolic spectral parameters u1..un (symbolic mode only)."""
        return [RatFunc(self.vars.var(f"u{j}")) for j in range(1, n + 1)]

    def map(self, fn):
        """ParamSet with every scalar (including w) passed through fn."""
        out = ParamSet.unchecked(*(fn(getattr(self, n))
                                   for n in ("t", "a", "b", "c", "d", "e", "f")),
                                 w=[fn(x) for x in self.w] if self.w else None)
        return out

    def __repr__(self):
        kind = "symbolic" if self.symbolic else "numeric"
        return f"ParamSet<{kind}>(t={self.t}, a={self.a}, b={self.b}, " \
               f"c={self.c}, d={self.d}, e={self.e}, f={self.f})"
