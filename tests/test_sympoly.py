"""Closed-form families, skew factors, Young-diagram translation."""

from itertools import permutations

import pytest

from vertexpoly.lattice import (HoleConfig, ParticleConfig,
                                all_particle_configs, matrix_element,
                                wavefunction)
from vertexpoly.params import ParamSet
from vertexpoly.ring import (QQ, RatFunc, Residue, RingError,
                             canonical_vartable)
from vertexpoly.sympoly import (config_to_young, degeneration_rhs,
                                family_poly, grothendieck_det, interlaces,
                                skew_factor, young_to_config)


@pytest.fixture
def sym2():
    vt = canonical_vartable(n_u=2)
    return ParamSet.symbolic_over(vt)


@pytest.fixture
def sym1():
    vt = canonical_vartable(n_u=1)
    return ParamSet.symbolic_over(vt)


def test_worked_example_m4_both_closed_forms(sym2):
    # the hand-computed M=4, N=2, x=(2,4) value: lattice sum and the
    # permutation formula, both written out explicitly
    p = sym2
    t, a, b, c, d, e, f = p.t, p.a, p.b, p.c, p.d, p.e, p.f
    u1, u2 = p.spectral(2)
    x_poly = (e * u1 + f) ** 2 * (a * u2 + b) * (a * t * u2 + b) \
        + (1 - t) ** 2 * c * d * u2 * (a * u1 + b) * (e * u1 + f) \
        + (a * u1 + b) ** 2 * (e * u2 + f) * (e * u2 + t * f)
    y_poly = ((a * u1 + b) ** 2 * (e * u2 + f) ** 2 * (t * u1 - u2)
              + (e * u1 + f) ** 2 * (a * u2 + b) ** 2 * (u1 - t * u2)) \
        / (u1 - u2)
    scale = (e * u1 + f) * (e * u2 + f) * (1 - t) ** 2 * c ** 2 * u1 * u2
    config = ParticleConfig(4, (2, 4))
    assert wavefunction("psi", config, [u1, u2], p) == scale * x_poly
    assert family_poly("G", config, [u1, u2], p) == scale * y_poly


@pytest.mark.parametrize("wf_kind,fam_kind,flavor", [
    ("psi", "G", "particle"),
    ("psi_dual", "Gbar", "particle"),
    ("phi", "H", "hole"),
    ("phi_dual", "Hbar", "hole"),
])
def test_families_match_wavefunctions_symbolically(sym2, wf_kind, fam_kind,
                                                   flavor):
    us = sym2.spectral(2)
    for c in all_particle_configs(4, 2):
        config = c if flavor == "particle" else HoleConfig(4, c.x)
        assert family_poly(fam_kind, config, us, sym2) == \
            wavefunction(wf_kind, config, us, sym2)


def _family_config(kind, m, x):
    return ParticleConfig(m, x) if kind in ("G", "Gbar") else HoleConfig(m, x)


def test_family_results_are_polynomial_up_to_monomials(sym2):
    # the reduced form: one denominator term, and no variable of it divides
    # every numerator term
    us = sym2.spectral(2)
    for kind in ("G", "Gbar", "H", "Hbar"):
        for m in (3, 4):
            for c in all_particle_configs(m, 2):
                r = family_poly(kind, _family_config(kind, m, c.x), us, sym2)
                (den,) = r.den.terms
                assert all(min(e[i] for e in r.num.terms) == 0
                           for i, k in enumerate(den) if k), (kind, c)


def test_family_kind_config_mismatch_rejected(sym2):
    us = sym2.spectral(2)
    with pytest.raises(RingError):
        family_poly("G", HoleConfig(4, (1, 2)), us, sym2)
    with pytest.raises(RingError):
        family_poly("H", ParticleConfig(4, (1, 2)), us, sym2)


def test_unknown_family_kind_is_named_before_the_config_class(sym2):
    us = sym2.spectral(2)
    with pytest.raises(RingError, match="unknown family kind 'X'"):
        family_poly("X", ParticleConfig(4, (1, 2)), us, sym2)


def test_family_is_symmetric_in_spectral_parameters(sym2):
    p = ParamSet.sample(19)
    us = [QQ(2, 3), QQ(7, 5)]
    config = ParticleConfig(5, (2, 4))
    assert family_poly("G", config, us, p) == \
        family_poly("G", config, list(reversed(us)), p)
    # a canonical form of a symmetric function cannot depend on the order
    # of its arguments
    us = sym2.spectral(2)
    for kind in ("G", "Gbar", "H", "Hbar"):
        config = _family_config(kind, 5, (2, 4))
        assert str(family_poly(kind, config, us, sym2)) == \
            str(family_poly(kind, config, us[::-1], sym2)), kind


def test_interlacing_predicate():
    assert interlaces((1, 3, 5), (2, 4))
    assert interlaces((1, 2, 4), (2, 4))
    assert not interlaces((1, 2, 4), (3, 4))
    assert not interlaces((1, 3), (2, 4))


def test_skew_factor_zero_without_interlacing(sym1):
    u = sym1.spectral(1)[0]
    assert skew_factor("G", (1, 2, 4), (3, 4), u, sym1, 5).is_zero()


def test_skew_factor_rejects_unknown_kind_without_interlacing(sym1):
    u = sym1.spectral(1)[0]
    with pytest.raises(RingError, match="unknown family kind 'X'"):
        skew_factor("X", (1, 2), (3,), u, sym1, 4)


def test_skew_factor_worked_product(sym1):
    # M=10 example: y=(2,3,4,5,7,8,10) over x=(2,4,5,6,8,10)
    p = sym1
    t, a, b, c, d, e, f = p.t, p.a, p.b, p.c, p.d, p.e, p.f
    u = p.spectral(1)[0]
    got = skew_factor("G", (2, 3, 4, 5, 7, 8, 10), (2, 4, 5, 6, 8, 10),
                      u, p, 10)
    want = ((1 - t) * c * u) ** 2 * (1 - t) * d * (a * t * u + b) ** 4 \
        * (a * u + b) * (e * u + t * f) * (e * u + f)
    assert got == want


@pytest.mark.parametrize("kind,op,flavor,transpose", [
    ("G", "B", "particle", False),
    ("Gbar", "C", "particle", True),
    ("H", "B", "hole", True),
    ("Hbar", "C", "hole", False),
])
def test_skew_factors_equal_row_operator_matrix_elements(sym1, kind, op,
                                                         flavor, transpose):
    u = sym1.spectral(1)[0]
    m = 5
    for y in [(1, 3, 5), (2, 3, 4), (1, 2, 5)]:
        for x in [(2, 4), (1, 3), (3, 4), (2, 3)]:
            if flavor == "particle":
                big, small = ParticleConfig(m, y), ParticleConfig(m, x)
            else:
                big, small = HoleConfig(m, y), HoleConfig(m, x)
            bra, ket = (small, big) if transpose else (big, small)
            assert skew_factor(kind, y, x, u, sym1, m) == \
                matrix_element(op, bra, u, ket, sym1)


def test_young_translation_roundtrip():
    for m, x in [(8, (2, 4, 7)), (5, (1, 2, 3)), (6, (4, 5, 6))]:
        config = ParticleConfig(m, x)
        lam = config_to_young(config)
        assert all(i >= j for i, j in zip(lam, lam[1:]))
        assert young_to_config(lam, m) == config


def test_young_translation_rejects_bad_partitions():
    with pytest.raises(RingError):
        young_to_config((1, 2), 5)
    with pytest.raises(RingError):
        young_to_config((9,), 5)


def test_grothendieck_bialternant_known_values():
    vt = canonical_vartable(n_u=0, free_params=(), beta=True)
    beta = RatFunc(vt.var("beta"))
    # empty partition: the constant 1
    assert grothendieck_det((), [], beta) == beta ** 0
    # single-row, single-variable: z^k
    z_table = canonical_vartable(free_params=("z",), beta=True)
    z = RatFunc(z_table.var("z"))
    b2 = RatFunc(z_table.var("beta"))
    assert grothendieck_det((3,), [z], b2) == z ** 3


def test_grothendieck_reduces_to_schur_at_beta_zero():
    # at beta = 0 the bialternant form is the Schur polynomial; check
    # s_{(1)}(z1, z2) = z1 + z2 and s_{(2,1)} = (z1 + z2) z1 z2
    vt = canonical_vartable(free_params=("z1", "z2"))
    z1, z2 = RatFunc(vt.var("z1")), RatFunc(vt.var("z2"))
    zero = RatFunc(vt.const(0))
    assert grothendieck_det((1, 0), [z1, z2], zero) == z1 + z2
    assert grothendieck_det((2, 1), [z1, z2], zero) == (z1 + z2) * z1 * z2


def test_degeneration_rhs_at_empty_partition():
    # N=1, x=(1,): the partition is empty, so the right side is u^M
    vt = canonical_vartable(n_u=1, free_params=(), beta=True)
    u = RatFunc(vt.var("u1"))
    beta = RatFunc(vt.var("beta"))
    config = ParticleConfig(3, (1,))
    assert config_to_young(config) == (0,)
    assert degeneration_rhs(config, [u], beta, 3) == u ** 3


def test_degeneration_matches_t_to_zero_limit():
    vt = canonical_vartable(n_u=2, free_params=("t",), beta=True)
    one = RatFunc(vt.const(1))
    t = RatFunc(vt.var("t"))
    beta = RatFunc(vt.var("beta"))
    us = [RatFunc(vt.var("u1")), RatFunc(vt.var("u2"))]
    p = ParamSet(t, one, t * beta, one, one)
    config = ParticleConfig(4, (2, 3))
    lhs = family_poly("G", config, us, p).substitute({"t": 0})
    assert lhs == degeneration_rhs(config, us, beta, 4)


# the a = c = d = 1, b = t*beta family at t = 0 itself, the parameter set
# eval-mode `degeneration` evaluates the first family at
_T0_BETA = QQ(3, 5)
_T0_US = [QQ(2, 3), QQ(-5, 7), QQ(11, 4)]
_T0_SET = dict(t=QQ(0), a=QQ(1), b=QQ(0), c=QQ(1), d=QQ(1), e=-1 / _T0_BETA,
               f=QQ(-1))


def _t0_params(**shift):
    vals = {k: v + shift.get(k, 0) for k, v in _T0_SET.items()}
    return ParamSet.unchecked(*(vals[k] for k in "tabcdef"))


@pytest.mark.parametrize("m, n", [(4, 2), (4, 3), (5, 3)])
def test_family_at_the_t0_set_is_the_symbolic_t_to_zero_limit(m, n):
    vt = canonical_vartable(n_u=n, free_params=("t",), beta=True)
    one, t = RatFunc(vt.const(1)), RatFunc(vt.var("t"))
    zero = RatFunc(vt.const(0))
    beta = RatFunc(vt.var("beta"))
    us = [RatFunc(vt.var(f"u{j}")) for j in range(1, n + 1)]
    p = ParamSet(t, one, t * beta, one, one)
    # the t = 0 set with symbolic beta, as exact-mode `degeneration` builds it
    p0 = ParamSet.unchecked(zero, one, zero, one, one, -one / beta, -one)
    point = dict({f"u{j}": u for j, u in enumerate(_T0_US[:n], 1)},
                 t=0, beta=_T0_BETA)
    for config in all_particle_configs(m, n):
        limit = family_poly("G", config, us, p).substitute({"t": 0})
        symbolic_t0 = family_poly("G", config, us, p0)
        assert symbolic_t0 == limit, config.x
        assert str(symbolic_t0) == str(limit), config.x
        at_t0 = family_poly("G", config, _T0_US[:n], _t0_params())
        assert at_t0 == limit.evaluate(point), config.x
        assert at_t0 == degeneration_rhs(config, _T0_US[:n], _T0_BETA, m)


# d is left out: the family G never reads it
@pytest.mark.parametrize("name", ["t", "a", "b", "c", "e", "f"])
@pytest.mark.parametrize("m, n", [(4, 2), (5, 3)])
def test_a_perturbed_t0_set_misses_the_grothendieck_side(m, n, name):
    us = _T0_US[:n]
    bad = _t0_params(**{name: 1})
    assert any(family_poly("G", config, us, bad)
               != degeneration_rhs(config, us, _T0_BETA, m)
               for config in all_particle_configs(m, n))


def _family_by_formula(kind, config, us, p):
    """The permutation sum written straight from the family's formula.

    The sum over sigma of prod_j w(u_s) num(u_s)^(x_j - 1) den(u_s)^(M - x_j)
    with s = sigma(j), times prod_{j<k} R(u_sigma(j), u_sigma(k)), where
    R(x, y) = (t x - y)/(x - y) or (x - t y)/(x - y), and for H and Hbar a
    factor t^(-N(N-1)/2).  The denominators of R multiply to sgn(sigma)
    times the Vandermonde, which divides the sum once, so symbolic results
    come out reduced.  Every factor is a scalar as given; nothing is
    cleared.
    """
    t, a, b, c, d, e, f = p.t, p.a, p.b, p.c, p.d, p.e, p.f
    forms = {"G": (lambda u: e * u + f, lambda u: a * u + b, True, False),
             "Gbar": (lambda u: a * u + b, lambda u: e * u + f, False, True),
             "H": (lambda u: e * u + t * f, lambda u: a * t * u + b, True,
                   True),
             "Hbar": (lambda u: a * t * u + b, lambda u: e * u + t * f, False,
                      False)}
    num, den, with_cu, x_minus_ty = forms[kind]
    xs = config.x if kind in ("G", "Gbar") else config.xbar
    m, n = config.m, len(us)
    total = p.zero()
    for sigma in permutations(range(n)):
        term = p.one()
        for x, s in zip(xs, sigma):
            u = us[s]
            weight = (1 - t) * c * u if with_cu else (1 - t) * d
            term = term * weight * num(u) ** (x - 1) * den(u) ** (m - x)
        for j in range(n):
            for k in range(j + 1, n):
                x, y = us[sigma[j]], us[sigma[k]]
                term = term * (x - t * y if x_minus_ty else t * x - y)
                if sigma[j] > sigma[k]:
                    term = -term
        total = total + term
    vandermonde = p.one()
    for j in range(n):
        for k in range(j + 1, n):
            vandermonde = vandermonde * (us[j] - us[k])
    if kind in ("H", "Hbar"):
        vandermonde = vandermonde * t ** (n * (n - 1) // 2)
    return total / vandermonde


def _family_points():
    """name -> (m, n, p, us), covering each scalar mode the sum runs on."""
    num = ParamSet.sample(31)
    rational = [QQ(2, 3), QQ(-5, 7), QQ(11, 4)]
    sym = ParamSet.symbolic_over(canonical_vartable(n_u=2))
    vt = canonical_vartable(n_u=2, free_params=(), beta=True)
    one, zero = RatFunc(vt.const(1)), RatFunc(vt.const(0))
    sym0 = ParamSet.unchecked(zero, one, zero, one, one,
                              -one / RatFunc(vt.var("beta")), -one)
    return {
        "rational-8-3": (8, 3, num, rational),
        "symbolic-4-2": (4, 2, sym, sym.spectral(2)),
        "t0-symbolic-beta": (4, 2, sym0, [RatFunc(vt.var(f"u{j}"))
                                          for j in (1, 2)]),
        "t0-rational-beta": (5, 3, _t0_params(), _T0_US),
        "residues-5-2": (5, 2, num.map(Residue.of),
                         [Residue.of(u) for u in rational[:2]]),
        "n1": (3, 1, num, rational[:1]),
        "n0": (3, 0, num, []),
    }


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError:
        # H and Hbar divide by t, so the t = 0 set has no such family
        return ZeroDivisionError


@pytest.mark.parametrize("kind", ["G", "Gbar", "H", "Hbar"])
@pytest.mark.parametrize("point", list(_family_points()))
def test_cleared_sum_equals_the_formula(point, kind):
    m, n, p, us = _family_points()[point]
    for c in all_particle_configs(m, n):
        config = _family_config(kind, m, c.x)
        got = _outcome(family_poly, kind, config, us, p)
        want = _outcome(_family_by_formula, kind, config, us, p)
        assert got == want, c.x
        assert type(got) is type(want), c.x
        assert str(got) == str(want), c.x
