"""Exact arithmetic layer: polynomials, rational functions, determinants."""

import json
import random
from collections.abc import Mapping

import pytest

from vertexpoly.ring import (PRIME, QQ, MultiPoly, NonExactDivision,
                             RatFunc, Residue, RingError, VarTable,
                             canonical_vartable, determinant,
                             distinct_rationals, exact_divide, poly_from_json,
                             poly_to_json, random_rational, ratfunc_from_json,
                             ratfunc_to_json, try_exact_divide)


def random_poly(vt, rng, n_terms=4, max_exp=3):
    terms = {}
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_exp) for _ in vt.names)
        terms[exps] = QQ(rng.randint(-20, 20))
    return MultiPoly(vt, terms)


@pytest.fixture
def vt():
    return VarTable(["x", "y", "z"])


def test_ring_axioms_on_random_polynomials(vt):
    rng = random.Random(101)
    for _ in range(25):
        p = random_poly(vt, rng)
        q = random_poly(vt, rng)
        r = random_poly(vt, rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + vt.zero() == p
        assert p * vt.one() == p
        assert p - p == vt.zero()


def test_power_matches_repeated_multiplication(vt):
    rng = random.Random(7)
    p = random_poly(vt, rng)
    acc = vt.one()
    for k in range(6):
        assert p ** k == acc
        acc = acc * p


def test_evaluation_is_a_ring_homomorphism(vt):
    rng = random.Random(13)
    point = {"x": QQ(2, 3), "y": QQ(-5), "z": QQ(7, 11)}
    for _ in range(10):
        p = random_poly(vt, rng)
        q = random_poly(vt, rng)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


def test_partial_substitution_agrees_with_evaluation(vt):
    rng = random.Random(17)
    point = {"x": QQ(2, 3), "y": QQ(-5), "z": QQ(7, 11)}
    for _ in range(10):
        p = random_poly(vt, rng)
        q = random_poly(vt, rng) + vt.one()
        partial = p.substitute({"x": point["x"], "z": 0})
        assert isinstance(partial, RatFunc) and partial.is_poly()
        assert partial.evaluate(point) == p.evaluate(dict(point, z=0))
        if q.substitute({"x": point["x"]}).is_zero():
            continue
        r = RatFunc(p, q).substitute({"x": point["x"]})
        assert r.evaluate(point) == RatFunc(p, q).evaluate(point)
    with pytest.raises(RingError):
        vt.var("x").substitute({"y": RatFunc(vt.var("z"))})


def test_exact_division_roundtrip(vt):
    rng = random.Random(29)
    for _ in range(20):
        p = random_poly(vt, rng)
        q = random_poly(vt, rng)
        if q.is_zero():
            continue
        assert exact_divide(p * q, q) == p


def test_inexact_division_is_detected(vt):
    x = vt.var("x")
    y = vt.var("y")
    assert try_exact_divide(x * x + y, x + vt.one()) is None
    with pytest.raises(NonExactDivision):
        exact_divide(x * x + y, x + vt.one())


def test_division_by_zero_polynomial_raises(vt):
    with pytest.raises((RingError, ZeroDivisionError)):
        exact_divide(vt.var("x"), vt.zero())


def test_ratfunc_normalizes_shared_factors(vt):
    x, y = vt.var("x"), vt.var("y")
    r = RatFunc((x + y) * (x - y), (x + y))
    assert r.is_poly()
    assert r.as_poly() == x - y


def test_ratfunc_monomial_content_cancels(vt):
    x, y = vt.var("x"), vt.var("y")
    r = RatFunc(x * x * y, x * y * y)
    assert r == RatFunc(x, y)


def test_ratfunc_equality_by_cross_multiplication(vt):
    x, y = vt.var("x"), vt.var("y")
    one = vt.one()
    lhs = RatFunc(one, x + y) + RatFunc(one, x - y)
    rhs = RatFunc(2 * x, (x + y) * (x - y))
    assert lhs == rhs
    # a polynomial compares with a rational function from either side
    assert x - y == RatFunc(x - y) and RatFunc(x - y) == x - y
    assert x - y != lhs and lhs != x - y and not x - y == lhs


def test_ratfunc_negative_powers(vt):
    x = vt.var("x")
    r = RatFunc(x) ** -2
    assert r * RatFunc(x * x) == RatFunc(vt.one())


def test_graded_lex_string_order():
    vt = VarTable(["t", "u"])
    p = vt.var("u") + vt.var("t") * vt.var("u") + vt.const(3)
    assert str(p) == "t*u + u + 3"


def test_determinant_exact_matches_evaluation():
    rng = random.Random(37)
    vt = VarTable(["x", "y"])
    for n in range(1, 5):
        mat_sym = [[RatFunc(random_poly(vt, rng, n_terms=2, max_exp=2))
                    for _ in range(n)] for _ in range(n)]
        det_sym = determinant(mat_sym)
        rng_point = random.Random(n)
        point = {name: random_rational(rng_point) for name in vt.names}
        assert det_sym.den.evaluate(point) != 0
        mat_num = [[x.evaluate(point) for x in row] for row in mat_sym]
        assert det_sym.evaluate(point) == determinant(mat_num)


def test_determinant_vanishes_on_repeated_rows():
    vt = VarTable(["x"])
    x = RatFunc(vt.var("x"))
    one = RatFunc(vt.one())
    mat = [[x, one], [x, one]]
    assert determinant(mat).is_zero()


def test_determinant_of_empty_matrix_is_one():
    assert determinant([]) == QQ(1)


def test_determinant_rejects_mixed_modes():
    vt = VarTable(["x"])
    with pytest.raises(RingError):
        determinant([[RatFunc(vt.var("x")), QQ(1)],
                     [QQ(1), QQ(1)]])


def test_determinant_sign_convention():
    # a permutation matrix with a single transposition has determinant -1
    vt = VarTable(["x"])
    one, zero = RatFunc(vt.one()), RatFunc(vt.zero())
    for n, swap in [(2, (0, 1)), (3, (1, 2)), (4, (0, 3))]:
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        rows[swap[0]], rows[swap[1]] = rows[swap[1]], rows[swap[0]]
        assert determinant(rows) == -one


def test_json_roundtrip(vt):
    rng = random.Random(41)
    p = random_poly(vt, rng)
    assert poly_from_json(json.loads(json.dumps(poly_to_json(p)))) == p
    r = RatFunc(p, random_poly(vt, rng) + vt.one())
    back = ratfunc_from_json(json.loads(json.dumps(ratfunc_to_json(r))))
    assert back == r


def test_distinct_rationals_are_seeded_and_pairwise_distinct():
    draws = distinct_rationals(random.Random(3), 40)
    assert draws == distinct_rationals(random.Random(3), 40)
    assert len(draws) == len(set(draws)) == 40
    assert all(isinstance(v, QQ) and v > 0 for v in draws)
    # the first draw is the single draw of the same stream
    assert draws[0] == random_rational(random.Random(3))
    # pinned: seeded values stay the same across versions
    assert distinct_rationals(random.Random(5), 3) == [
        QQ(326580, 133927), QQ(777821, 375952), QQ(833821, 723986)]


def test_canonical_vartable_ordering():
    vt = canonical_vartable(n_u=2, n_w=1, beta=True)
    assert vt.names == ("t", "a", "b", "c", "d", "beta", "u1", "u2", "w1")


def test_exponents_past_the_field_width_repack():
    # an 8-variable table starts with 8-bit fields: exponents up to 127
    vt = VarTable([f"v{i}" for i in range(8)])
    a = MultiPoly(vt, {(127, 1) + (0,) * 6: QQ(1), (0,) * 8: QQ(1)})
    b = MultiPoly(vt, {(1, 127) + (0,) * 6: QQ(2, 3)})
    prod = a * b
    assert dict(prod.terms) == {(128, 128) + (0,) * 6: QQ(2, 3),
                                (1, 127) + (0,) * 6: QQ(2, 3)}
    assert exact_divide(prod, b) == a and exact_divide(prod, a) == b
    assert try_exact_divide(prod + 1, b) is None
    assert prod - a * b == vt.zero()


def test_public_values_are_rationals(vt):
    p = MultiPoly(vt, {(1, 0, 2): 3, (0, 0, 0): QQ(1, 2)})
    assert isinstance(p.terms, Mapping) and len(p.terms) == 2
    assert p.terms[(1, 0, 2)] == 3 and isinstance(p.terms[(1, 0, 2)], QQ)
    assert p.leading() == ((1, 0, 2), QQ(3))
    assert isinstance(p.leading()[1], QQ)
    assert isinstance(vt.const(4).constant_value(), QQ)
    value = p.evaluate({"x": 1, "y": 5, "z": 2})
    assert value == QQ(25, 2) and isinstance(value, QQ)


def test_polynomial_over_polynomial_is_the_equal_ratfunc(vt):
    x, y = vt.var("x"), vt.var("y")
    q = (x * x - y * y) / (x - y)
    assert isinstance(q, RatFunc)
    assert q == RatFunc(x + y)
    assert (x + 1) / (x - 1) == RatFunc(x + 1, x - 1)


def test_polynomial_equals_a_rational(vt):
    x = vt.var("x")
    assert vt.zero() == 0 and vt.zero() == QQ(0) and not vt.zero() != 0
    assert vt.const(QQ(3, 2)) == QQ(3, 2) and vt.const(3) == 3
    assert vt.const(3) != QQ(3, 2)
    assert x != 0 and x != 1 and x + 1 != 1


def test_polynomial_and_residue_reprs(vt):
    x, y = vt.var("x"), vt.var("y")
    assert repr(x * x + 2 * y) == "MultiPoly(x^2 + 2*y)"
    assert repr(vt.const(QQ(3, 2))) == "MultiPoly(3/2)"
    assert repr(Residue(5)) == "Residue(5)"
    assert repr(Residue(-1)) == f"Residue({PRIME - 1})"
