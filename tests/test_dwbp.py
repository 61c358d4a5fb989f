"""Packed-boundary partition functions: sum, determinants, properties."""

import random

import pytest

from vertexpoly import dwbp
from vertexpoly.dwbp import (check_ik_properties, z_det_hom, z_det_inhom,
                             z_sum)
from vertexpoly.lattice import (ParticleConfig, StateVector,
                                apply_row_operator, wavefunction)
from vertexpoly.params import ParamSet
from vertexpoly.ring import (QQ, RatFunc, Residue, RingError,
                             canonical_vartable, determinant,
                             distinct_rationals)


def lattice_z(n, us, p, dual=False):
    """Brute-force N x N partition function from the row operators."""
    if dual:
        s = StateVector.packed(n, p.one())
        for u in us:
            s = apply_row_operator("C", u, s, p)
        return s.amplitude(0, p.zero())
    s = StateVector.vacuum(n, p.one())
    for u in us:
        s = apply_row_operator("B", u, s, p)
    return s.amplitude((1 << n) - 1, p.zero())


@pytest.fixture
def sym2():
    vt = canonical_vartable(n_u=2, n_w=2)
    return ParamSet.symbolic_over(vt, n_w=2)


def numeric_point(seed, n):
    import random
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        v = QQ(rng.randint(1, 999), rng.randint(1, 999))
        if v not in out:
            out.append(v)
    return out


def test_base_case_single_site(sym2):
    u1 = sym2.spectral(1)[0]
    p = sym2
    assert z_sum([u1], p, ws=[p.w[0]]) == (1 - p.t) * p.c * u1
    assert z_det_inhom([u1], p, ws=[p.w[0]]) == (1 - p.t) * p.c * u1
    assert z_det_inhom([u1], p, ws=[p.w[0]], dual=True) == \
        (1 - p.t) * p.d * p.w[0]


def test_two_site_value_matches_printed_expression(sym2):
    # the hand-expanded N=2 inhomogeneous value
    p = sym2
    t, a, b, e, f, c = p.t, p.a, p.b, p.e, p.f, p.c
    u1, u2 = p.spectral(2)
    w1, w2 = p.w
    want = (1 - t) * c * u1 * (1 - t) * c * u2 * (
        (a * t * u2 + b * w2) * (e * u1 + f * w1)
        + (e * u2 + t * f * w1) * (a * u1 + b * w2))
    assert z_sum([u1, u2], p, ws=[w1, w2]) == want
    assert z_det_inhom([u1, u2], p, ws=[w1, w2]) == want


def test_two_site_homogeneous_value(sym2):
    # at w = 1 the printed expression collapes to the homogeneous value
    p = sym2
    t, a, b, e, f, c = p.t, p.a, p.b, p.e, p.f, p.c
    u1, u2 = p.spectral(2)
    want = (1 - t) ** 2 * c ** 2 * u1 * u2 * (
        (a * t * u2 + b) * (e * u1 + f) + (e * u2 + t * f) * (a * u1 + b))
    assert z_sum([u1, u2], p) == want
    assert z_det_hom(2, [u1, u2], p) == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sum_determinant_lattice_triangle_exact(n):
    vt = canonical_vartable(n_u=n, n_w=n)
    p = ParamSet.symbolic_over(vt, n_w=n)
    us = p.spectral(n)
    reference = z_sum(us, p, ws=p.w)
    assert z_det_inhom(us, p, ws=p.w) == reference
    assert lattice_z(n, us, p) == reference
    assert z_det_hom(n, us, p) == z_sum(us, p)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triangle_at_random_points(n):
    for seed in range(3):
        p = ParamSet.sample(seed + 100, n_w=n)
        us = numeric_point(seed, n)
        reference = z_sum(us, p, ws=p.w)
        assert z_det_inhom(us, p, ws=p.w) == reference
        assert lattice_z(n, us, p) == reference


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dual_determinants_match_lattice(n):
    p = ParamSet.sample(n + 50, n_w=n)
    us = numeric_point(n + 7, n)
    p_hom = ParamSet(p.t, p.a, p.b, p.c, p.d)
    assert z_det_hom(n, us, p_hom, dual=True) == \
        lattice_z(n, us, p_hom, dual=True)
    assert z_det_inhom(us, p_hom, ws=p.w, dual=True) == \
        lattice_z(n, us, p, dual=True)


def test_coincident_spectral_parameters_rejected():
    p = ParamSet.sample(1)
    with pytest.raises(RingError):
        z_sum([QQ(1, 2), QQ(1, 2)], p)
    with pytest.raises(RingError):
        z_det_hom(2, [QQ(1, 2), QQ(1, 2)], p)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_characterizing_properties(n):
    report = check_ik_properties(n, ParamSet.sample(n), seed=17)
    assert report.degree
    assert report.symmetric
    assert report.base_case
    assert set(report.recursion) == set(range(1, n + 1))
    assert all(report.recursion.values())
    assert report.all_pass()


def test_recursion_fails_against_perturbed_sum():
    # feeding the sum at perturbed e into the property checker must break
    # the recursion (a vacuous checker would pass anything)
    p = ParamSet.sample(9)

    def sum_with_bad_e(us, q, ws=None):
        twisted = ParamSet.unchecked(q.t, q.a, q.b, q.c, q.d, 2 * q.e, q.f)
        return z_sum(us, twisted, ws=ws)

    report = check_ik_properties(2, p, seed=3, z_fn=sum_with_bad_e)
    assert not report.all_pass()


# -- the cleared determinants against the formulas they clear ------------


def _kernel_det_inhom(us, p, ws, dual=False):
    """The inhomogeneous form as printed: RatFunc kernel 1/cell, inverted
    entry by entry and expanded by `ring.determinant`."""
    n = len(us)
    one = p.one()
    t, a, b, c, d, e, f = p.t, p.a, p.b, p.c, p.d, p.e, p.f
    if dual:
        def cell(u, w):
            return (a * t * u + b * w) * (e * u + t * f * w)

        pref = one
        for w in ws:
            pref = pref * (1 - t) * d * w
        unit = t * t * c * d
    else:
        def cell(u, w):
            return (a * u + b * w) * (e * u + f * w)

        pref = one
        for u in us:
            pref = pref * (1 - t) * c * u
        unit = c * d
    for u in us:
        for w in ws:
            pref = pref * cell(u, w)
    denom = unit ** (n * (n - 1) // 2)
    for j in range(n):
        for k in range(j + 1, n):
            denom = denom * (us[j] - us[k]) * (ws[k] - ws[j])
    det = determinant([[one / cell(u, w) for w in ws] for u in us])
    return pref * det / denom


def _entry_det_hom(n, us, p, dual=False):
    """The homogeneous form as printed: entries built from powers of the
    four forms in p's scalars and expanded by `ring.determinant`."""
    t, a, b, c, d, e, f = p.t, p.a, p.b, p.c, p.d, p.e, p.f
    one = p.one()
    if dual:
        def entry(u, k):
            return (e * u + t * f) ** n * (-b) ** k * (a * t * u + b) ** (n - k) \
                - (a * t * u + b) ** n * (-t * f) ** k * (e * u + t * f) ** (n - k)

        denom = t ** (n * n) * c ** (n * (n + 1) // 2) * d ** (n * (n - 1) // 2)
        for u in us:
            denom = denom * u
    else:
        def entry(u, k):
            return (a * u + b) ** n * (-f) ** k * (e * u + f) ** (n - k) \
                - (e * u + f) ** n * (-b) ** k * (a * u + b) ** (n - k)

        denom = c ** (n * (n - 1) // 2) * d ** (n * (n + 1) // 2) * one
    for j in range(n):
        for k in range(j + 1, n):
            denom = denom * (us[j] - us[k])
    return determinant([[entry(u, k) for k in range(1, n + 1)]
                        for u in us]) / denom


def _det_points(n):
    """(label, p, us, ws) at N = n: symbolic, rational, residue and lifted."""
    sym = ParamSet.symbolic_canonical(n_u=n, n_w=n)
    out = [("symbolic", sym, sym.spectral(n), sym.w or [])]
    for seed in (2, 5):
        num = ParamSet.sample(seed + 40, n_w=n)
        us = distinct_rationals(random.Random(seed), n)
        ws = num.w or []
        res = num.map(Residue.of)
        lifted = ParamSet.symbolic_canonical(n_u=n, n_w=n, numeric=num)
        out += [(f"rational-{seed}", num, us, ws),
                (f"residue-{seed}", res, [Residue.of(u) for u in us],
                 res.w or []),
                (f"lifted-{seed}", lifted, lifted.spectral(n),
                 lifted.w or [])]
    return out


def _same(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert got == want


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_cleared_hom_equals_the_entry_formula(n):
    for label, p, us, _ in _det_points(n):
        if n == 4 and label.startswith("lifted"):
            continue
        for dual in (False, True):
            _same(z_det_hom(n, us, p, dual=dual),
                  _entry_det_hom(n, us, p, dual=dual))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_cleared_inhom_equals_the_kernel_formula(n):
    for _, p, us, ws in _det_points(n):
        for dual in (False, True):
            _same(z_det_inhom(us, p, ws=ws, dual=dual),
                  _kernel_det_inhom(us, p, ws=ws, dual=dual))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vanishing_kernel_cell_raises_as_the_kernel_formula_does(n):
    # w_1 = -a u_1 / b zeroes cell(u_1, w_1); the dual cell at w_1 vanishes
    # too, through e u_1 + t f w_1 = 0 on the constraint surface
    num = ParamSet.sample(4)
    us = [QQ(j, 3) for j in range(1, n + 1)]
    ws = [-num.a * us[0] / num.b] + [QQ(j, 11) for j in range(2, n + 1)]
    res = num.map(Residue.of)
    lifted = ParamSet.symbolic_canonical(n_u=n, numeric=num)
    lift = lambda v: RatFunc(lifted.vars.const(v))
    for p, pus, pws in ((num, us, ws),
                        (res, [Residue.of(u) for u in us],
                         [Residue.of(w) for w in ws]),
                        (lifted, [lift(u) for u in us],
                         [lift(w) for w in ws])):
        for dual in (False, True):
            with pytest.raises(ZeroDivisionError):
                _kernel_det_inhom(pus, p, ws=pws, dual=dual)
            with pytest.raises(ZeroDivisionError):
                z_det_inhom(pus, p, ws=pws, dual=dual)


def test_dual_forms_at_t_zero_raise_as_the_formulas_do():
    # the t = 0 set makes the dual hom prefactor t^(N^2) and every dual
    # kernel cell vanish
    vt = canonical_vartable(n_u=2, n_w=2, free_params=("beta",))
    beta = RatFunc(vt.var("beta"))
    zero, one = RatFunc(vt.zero()), RatFunc(vt.one())
    p = ParamSet.unchecked(zero, one, zero, one, one, -(beta ** -1), -one)
    us = [RatFunc(vt.var("u1")), RatFunc(vt.var("u2"))]
    ws = [RatFunc(vt.var("w1")), RatFunc(vt.var("w2"))]
    for n in (1, 2):
        for call in (lambda: z_det_hom(n, us[:n], p, dual=True),
                     lambda: _entry_det_hom(n, us[:n], p, dual=True),
                     lambda: z_det_inhom(us[:n], p, ws=ws[:n], dual=True),
                     lambda: _kernel_det_inhom(us[:n], p, ws=ws[:n],
                                               dual=True)):
            with pytest.raises(ZeroDivisionError):
                call()
        _same(z_det_inhom(us[:n], p, ws=ws[:n]),
              _kernel_det_inhom(us[:n], p, ws=ws[:n]))
        _same(z_det_hom(n, us[:n], p), _entry_det_hom(n, us[:n], p))


def test_empty_hom_determinant_at_the_int_built_t_zero_set_is_rational():
    # the int-built t = 0 set has int prefactor parameters, yet N = 0 gives
    # the rational 1 in both forms, never a float
    p = ParamSet.unchecked(0, 1, 0, 1, 1, QQ(-3, 7), -1)
    for dual in (False, True):
        got = z_det_hom(0, [], p, dual=dual)
        assert got == 1 and type(got) is QQ and str(got) == "1", dual


def test_laplace_over_q_sees_ints_only(monkeypatch):
    # both forms expand cleared rows: over Q no entry of the Laplace
    # expansion is a Fraction, and only its result is divided, once
    seen = []

    def recording(rows):
        seen.extend(type(v) for row in rows for v in row)
        return laplace(rows)

    laplace = dwbp.laplace
    monkeypatch.setattr(dwbp, "laplace", recording)
    num = ParamSet.sample(12, n_w=4)
    us = distinct_rationals(random.Random(12), 4)
    for dual in (False, True):
        assert type(z_det_hom(4, us, num, dual=dual)) is QQ
        assert type(z_det_inhom(us, num, ws=num.w, dual=dual)) is QQ
    assert len(seen) == 4 * 16 and set(seen) == {int}


def test_symbolic_inhom_at_three_sites_matches_the_lattice_at_a_point():
    p = ParamSet.symbolic_canonical(n_u=3, n_w=3)
    num = ParamSet.sample(21, n_w=3)
    us = distinct_rationals(random.Random(21), 3)
    point = {name: getattr(num, name) for name in "tabcd"}
    point.update({f"u{j}": u for j, u in enumerate(us, 1)})
    point.update({f"w{j}": w for j, w in enumerate(num.w, 1)})
    packed = ParticleConfig(3, (1, 2, 3))
    assert z_det_inhom(p.spectral(3), p, ws=p.w).evaluate(point) == \
        wavefunction("psi", packed, us, num)
