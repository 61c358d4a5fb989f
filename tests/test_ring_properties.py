"""Property-based tests of the exact-arithmetic layer.

The ring's own identities (axioms, exact division, normal forms, JSON) are
checked on random polynomials, and division and determinants are checked
against sympy as an independent oracle; the residue field GF(2^61 - 1) is
checked against Fraction arithmetic.  Exponents are drawn both small and
around the powers of two 2^7, 2^8 and 2^15, over a 3-variable and an
8-variable table, so that fixed-width exponent fields of 8 and 16 bits
overflow and carries and borrows between neighbouring fields are
exercised.
"""

import json
import operator
from math import lcm

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import random

from vertexpoly.ring import (PRIME, QQ, MultiPoly, RatFunc, Residue, VarTable,
                             clear_denominators, cleared_quotient,
                             determinant, distinct_rationals, exact_divide,
                             poly_from_json, poly_to_json, random_rational,
                             ratfunc_from_json, ratfunc_to_json,
                             try_exact_divide)

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")
VT = VarTable(NAMES)
GENS = sympy.symbols(NAMES)
WIDE = VarTable([f"v{i}" for i in range(8)])

FAST = settings(max_examples=50, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
ORACLE = settings(max_examples=25, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])

coeffs = st.builds(QQ, st.integers(-50, 50).filter(bool), st.integers(1, 12))

small_exps = st.integers(0, 3)
# small values plus values on both sides of 2^7, 2^8 and 2^15
wide_exps = st.one_of(small_exps, st.integers(60, 68), st.integers(120, 136),
                      st.integers(250, 260), st.integers(32760, 32775))
# rational functions divide by multi-term denominators, and a long division
# by a binomial takes about as many steps as the exponent is large
ratfunc_exps = st.one_of(small_exps, st.integers(120, 136))


def polys(exps=wide_exps, max_terms=4, vt=VT):
    monos = st.tuples(*[exps] * len(vt))
    return st.dictionaries(monos, coeffs, max_size=max_terms).map(
        lambda terms: MultiPoly(vt, terms))


def poly_tuples(k, **kw):
    """k polynomials over one table, either table."""
    return st.sampled_from([VT, WIDE]).flatmap(
        lambda vt: st.tuples(*[polys(vt=vt, **kw)] * k))


def nonzero(strategy):
    return strategy.filter(lambda p: not p.is_zero())


def to_sympy(p):
    return sum((sympy.Rational(int(c.numerator), int(c.denominator))
                * sympy.Mul(*[g ** k for g, k in zip(GENS, e)])
                for e, c in p.terms.items()), sympy.Integer(0))


def from_sympy(expr):
    poly = sympy.Poly(expr, *GENS, domain="QQ")
    return MultiPoly(VT, {e: QQ(int(c.p), int(c.q))
                          for e, c in poly.terms()})


# -- ring axioms --------------------------------------------------------


@FAST
@given(poly_tuples(3))
def test_ring_axioms(pqr):
    p, q, r = pqr
    zero, one = p.vars.zero(), p.vars.one()
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and p * zero == zero
    assert p - p == zero and -(-p) == p
    assert (p - q) + q == p


@FAST
@given(poly_tuples(1, max_terms=3), st.integers(0, 3))
def test_power_is_repeated_product(ps, k):
    (p,) = ps
    acc = p.vars.one()
    for _ in range(k):
        acc = acc * p
    assert p ** k == acc


@FAST
@given(poly_tuples(1), coeffs)
def test_scalar_multiple_and_division(ps, c):
    (p,) = ps
    assert (p * c) / c == p
    assert p * c == p * p.vars.const(c)


# -- exact division -----------------------------------------------------


@FAST
@given(poly_tuples(2))
def test_exact_divide_inverts_product(ab):
    a, b = ab
    if not b.is_zero():
        assert exact_divide(a * b, b) == a
    if not a.is_zero():
        assert exact_divide(a * b, a) == b


@FAST
@given(poly_tuples(2).filter(lambda ab: not (ab[0].is_zero()
                                               or ab[1].is_zero())))
def test_product_leading_term_is_product_of_leading_terms(ab):
    a, b = ab
    ea, ca = a.leading()
    eb, cb = b.leading()
    e, c = (a * b).leading()
    assert e == tuple(x + y for x, y in zip(ea, eb))
    assert c == ca * cb


@ORACLE
@given(polys(small_exps, 3), nonzero(polys(small_exps, 3)),
       polys(small_exps, 2), st.booleans())
def test_try_exact_divide_matches_sympy(a, b, noise, perturb):
    num = a * b + noise if perturb else a * b
    _, rem = sympy.div(to_sympy(num), to_sympy(b), *GENS, domain="QQ")
    q = try_exact_divide(num, b)
    assert (q is None) == (rem != 0)
    if q is not None:
        assert q * b == num


# -- rational functions -------------------------------------------------


@FAST
@given(polys(ratfunc_exps), nonzero(polys(ratfunc_exps)),
       polys(ratfunc_exps), nonzero(polys(ratfunc_exps)))
def test_ratfunc_denominator_is_monic(p, q, r, s):
    f, g = RatFunc(p, q), RatFunc(r, s)
    results = [f, g, f + g, f - g, f * g, -f]
    if not g.is_zero():
        results.append(f / g)
    for h in results:
        assert h.den.leading()[1] == 1


@FAST
@given(polys(ratfunc_exps), nonzero(polys(ratfunc_exps)),
       nonzero(polys(ratfunc_exps)))
def test_ratfunc_cancels_common_factor(p, q, s):
    assert RatFunc(p * s, q * s) == RatFunc(p, q)
    assert RatFunc(p * q, q).is_poly()


# -- JSON ---------------------------------------------------------------


@FAST
@given(polys(), polys(ratfunc_exps), nonzero(polys(ratfunc_exps)))
def test_json_round_trip(p, n, d):
    obj = json.loads(json.dumps(poly_to_json(p)))
    back = poly_from_json(obj)
    assert back == p and poly_to_json(back) == obj
    r = RatFunc(n, d)
    obj = json.loads(json.dumps(ratfunc_to_json(r)))
    back = ratfunc_from_json(obj)
    assert back == r and ratfunc_to_json(back) == obj


# -- evaluation ---------------------------------------------------------


@FAST
@given(poly_tuples(1, exps=ratfunc_exps),
       st.lists(coeffs, min_size=8, max_size=8), st.integers(0, 8))
def test_evaluate_matches_term_by_term_sum(ps, values, zero_at):
    (p,) = ps
    # at most one variable is zero, so that most values are nonzero
    values[zero_at:zero_at + 1] = [QQ(0)] * (zero_at < 8)
    want = QQ(0)
    for e, c in p.terms.items():
        for v, k in zip(values, e):
            c *= v ** k
        want += c
    assert p.evaluate(dict(zip(p.vars.names, values))) == want


# -- determinants -------------------------------------------------------


def square_matrices(entries, max_n=3):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                           min_size=n, max_size=n))


@ORACLE
@given(square_matrices(st.tuples(polys(small_exps, 2),
                                 st.sampled_from([None, "x", "y + 1"]))))
def test_symbolic_determinant_matches_sympy(cells):
    dens = {None: VT.one(), "x": VT.var("x"), "y + 1": VT.var("y") + 1}
    mat = [[RatFunc(p, dens[d]) for p, d in row] for row in cells]
    ours = determinant(mat)
    theirs = sympy.Matrix([[to_sympy(p) / to_sympy(dens[d]) for p, d in row]
                           for row in cells]).det(method="berkowitz")
    num, den = sympy.fraction(sympy.cancel(sympy.together(theirs)))
    assert ours.num * from_sympy(den) == from_sympy(num) * ours.den


@ORACLE
@given(square_matrices(st.one_of(st.just(QQ(0)), coeffs), max_n=5))
def test_rational_determinant_matches_sympy(cells):
    theirs = sympy.Matrix([[sympy.Rational(int(c.numerator),
                                           int(c.denominator)) for c in row]
                           for row in cells]).det()
    assert determinant(cells) == QQ(int(theirs.p), int(theirs.q))


# -- clearing a row to a common denominator ------------------------------

rationals = st.one_of(st.integers(-50, 50),
                      st.builds(QQ, st.integers(-50, 50), st.integers(1, 12)))
monomials = st.builds(lambda e, c: MultiPoly(VT, {e: c}),
                      st.tuples(*[small_exps] * len(VT)), coeffs)
ratfuncs = st.builds(RatFunc, polys(small_exps, 3),
                     st.one_of(monomials, nonzero(polys(small_exps, 3))))


def assert_clears(row):
    cleared, d = clear_denominators(row)
    assert len(cleared) == len(row)
    for x, c in zip(row, cleared):
        assert cleared_quotient(c, d) == x
    return cleared, d


@FAST
@given(st.lists(rationals, max_size=6))
def test_rational_row_clears_to_ints_over_the_lcm(row):
    cleared, d = assert_clears(row)
    assert all(type(c) is int for c in cleared) and type(d) is int
    assert d == lcm(1, *(QQ(x).denominator for x in row))
    assert all(type(cleared_quotient(c, d)) is QQ for c in cleared)


@FAST
@given(st.lists(st.builds(RatFunc, polys(small_exps, 3), monomials),
                min_size=1, max_size=5))
def test_ratfunc_row_over_monomials_clears_to_polynomials(row):
    cleared, d = assert_clears(row)
    assert all(isinstance(c, MultiPoly) for c in cleared)
    assert len(d.terms) == 1
    # the reduced form over a monomial is unique: dividing gives it back
    assert [str(cleared_quotient(c, d)) for c in cleared] == \
        [str(x) for x in row]


@FAST
@given(st.lists(ratfuncs, min_size=1, max_size=4))
def test_ratfunc_row_clears_to_polynomials(row):
    cleared, d = assert_clears(row)
    assert all(isinstance(c, MultiPoly) for c in cleared)
    assert isinstance(d, MultiPoly)


@FAST
@given(st.lists(st.one_of(ratfuncs, rationals), min_size=1, max_size=5)
       .filter(lambda row: any(isinstance(x, RatFunc) for x in row)))
def test_mixed_row_lifts_its_rationals(row):
    cleared, d = assert_clears(row)
    assert all(isinstance(c, MultiPoly) for c in cleared)
    for x, c in zip(row, cleared):
        if not isinstance(x, RatFunc):
            assert c == VT.const(x) * d


@FAST
@given(st.lists(st.integers(0, PRIME - 1).map(Residue), max_size=6))
def test_residue_row_comes_back_unchanged(row):
    cleared, d = clear_denominators(row)
    assert d == 1 and cleared == row
    assert all(c is x for c, x in zip(cleared, row))


# -- residues mod 2^61 - 1, with Fraction arithmetic as the oracle -------

# small and huge integers, multiples of the prime and its neighbours
integers = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                     st.integers(-10 ** 40, 10 ** 40),
                     st.builds(lambda k, r: k * PRIME + r,
                               st.integers(-3, 3), st.integers(-2, 2)))
# rationals whose residue exists: denominators prime to the prime
reducible = st.builds(QQ, integers, integers.filter(bool)).filter(
    lambda q: q.denominator % PRIME)


@FAST
@given(reducible, reducible)
def test_residue_map_is_a_ring_homomorphism(x, y):
    rx, ry = Residue.of(x), Residue.of(y)
    assert Residue.of(x + y) == rx + ry
    assert Residue.of(x - y) == rx - ry
    assert Residue.of(-x) == -rx
    assert Residue.of(x * y) == rx * ry
    if y.numerator % PRIME:
        assert Residue.of(x / y) == rx / ry
    assert 0 <= rx.v < PRIME and str(rx) == str(rx.v)


@FAST
@given(reducible, st.integers(-6, 6))
def test_residue_powers_match_rational_powers(x, k):
    if k < 0 and x.numerator % PRIME == 0:
        return
    assert Residue.of(x ** k) == Residue.of(x) ** k


@FAST
@given(reducible, st.integers(-10 ** 30, 10 ** 30))
def test_python_ints_coerce_on_either_side(x, k):
    r, rk = Residue.of(x), Residue.of(k)
    assert r + k == k + r == r + rk
    assert r - k == r - rk and k - r == rk - r
    assert r * k == k * r == r * rk
    assert (r == k) == (r == rk)
    if k % PRIME:
        assert r / k == r / rk
    if r.v:
        assert k / r == rk / r
    assert hash(Residue.of(k)) == hash(Residue.of(k + PRIME))


@ORACLE
@given(square_matrices(st.one_of(st.just(QQ(0)), reducible), max_n=5))
def test_residue_determinant_matches_rational_determinant(cells):
    residues = [[Residue.of(c) for c in row] for row in cells]
    assert determinant(residues) == Residue.of(determinant(cells))


@FAST
@given(st.integers(0, 2 ** 32), st.integers(2, 12))
def test_distinct_draws_map_to_distinct_residues(seed, n):
    draws = distinct_rationals(random.Random(seed), n)
    assert len({Residue.of(q) for q in draws}) == n


@FAST
@given(*[st.integers(1, 10 ** 6)] * 4)
def test_draws_congruent_mod_p_are_equal(n1, d1, n2, d2):
    # the shape of every `random_rational` draw
    assert (Residue.of(QQ(n1, d1)) == Residue.of(QQ(n2, d2))) == \
        (QQ(n1, d1) == QQ(n2, d2))


def test_seeded_draws_are_nonzero_residues():
    rng = random.Random(5)
    assert all(not Residue.of(random_rational(rng)).is_zero()
               for _ in range(1000))


MIXED_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@FAST
@given(reducible, st.sampled_from(MIXED_OPS))
def test_mixing_a_residue_with_a_rational_is_a_type_error(x, op):
    r = Residue(3)
    for a, b in ((r, x), (x, r), (r, 1.5), (1.5, r)):
        with pytest.raises(TypeError):
            op(a, b)


@FAST
@given(reducible)
def test_comparing_a_residue_with_a_rational_is_a_type_error(x):
    r = Residue.of(x)
    poly = VT.const(x)
    for other in (x, poly, RatFunc(poly)):
        for op in (operator.eq, operator.ne):
            for a, b in ((r, other), (other, r)):
                with pytest.raises(TypeError):
                    op(a, b)


def test_zero_residue_division_raises():
    zero, five = Residue(0), Residue(5)
    for thunk in (lambda: five / zero, lambda: five / PRIME,
                  lambda: 1 / zero, lambda: zero ** -1,
                  lambda: Residue.of(QQ(1, PRIME))):
        with pytest.raises(ZeroDivisionError):
            thunk()
