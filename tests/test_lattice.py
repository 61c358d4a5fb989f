"""Lattice engine: local weights, row operators, wavefunctions."""

from itertools import combinations

import pytest

import vertexpoly.lattice as lattice
from vertexpoly.lattice import (HoleConfig, ParticleConfig, StateVector,
                                all_particle_configs, apply_row_operator,
                                check_rll, check_ybe, l_weight,
                                matrix_element, r_weight, wavefunction,
                                wavefunctions)
from vertexpoly.params import ParamSet
from vertexpoly.ring import (QQ, RatFunc, Residue, RingError,
                             canonical_vartable)


@pytest.fixture
def num():
    return ParamSet.sample(11)


@pytest.fixture
def sym():
    vt = canonical_vartable(n_u=2)
    return ParamSet.symbolic_over(vt)


def spectral(p, n):
    if p.symbolic:
        return p.spectral(n)
    return [QQ(3 * j + 2, 2 * j + 5) for j in range(n)]


def test_configs_validate_and_encode():
    c = ParticleConfig(5, (1, 3, 4))
    assert c.bits() == 0b01101
    assert c.complement().xbar == (2, 5)
    assert c.complement().bits() == c.bits()
    with pytest.raises(RingError):
        ParticleConfig(4, (2, 2))
    with pytest.raises(RingError):
        HoleConfig(4, (0,))


def test_all_particle_configs_counts():
    assert len(all_particle_configs(6, 3)) == 20
    assert all_particle_configs(3, 1)[0].x == (1,)


def test_local_weight_vanishes_off_ice_rule(num):
    u = QQ(2, 7)
    total = 0
    for a in (0, 1):
        for b in (0, 1):
            for g in (0, 1):
                for d in (0, 1):
                    w = l_weight(a, b, g, d, u, QQ(1), num)
                    if a + b != g + d:
                        assert w == 0
                    else:
                        total += w
    assert total != 0


def test_r_weight_matches_known_entries(num):
    u = QQ(5, 3)
    t = num.t
    assert r_weight(0, 0, 0, 0, u, num) == u - t
    assert r_weight(1, 1, 1, 1, u, num) == u - t
    assert r_weight(0, 1, 0, 1, u, num) == t * (u - 1)
    assert r_weight(1, 0, 0, 1, u, num) == (1 - t) * u
    assert r_weight(0, 1, 1, 0, u, num) == 1 - t
    assert r_weight(1, 0, 1, 0, u, num) == u - 1


def particle_counts(s):
    return {bin(bits).count("1") for bits in s.amps}


def test_row_operators_shift_particle_number(num):
    u = QQ(1, 3)
    s = StateVector.basis(4, 0b0110, num.one())
    assert particle_counts(apply_row_operator("B", u, s, num)) <= {3}
    assert particle_counts(apply_row_operator("C", u, s, num)) <= {1}
    assert particle_counts(apply_row_operator("A", u, s, num)) <= {2}
    assert particle_counts(apply_row_operator("D", u, s, num)) <= {2}


def test_single_site_creation_weight(sym):
    # on one site, the creation operator turns vacuum into the particle
    # state with weight (1-t)c u
    u = sym.spectral(1)[0]
    s = apply_row_operator("B", u, StateVector.vacuum(1, sym.one()), sym)
    assert s.amplitude(1, sym.zero()) == (1 - sym.t) * sym.c * u


def test_b_operators_commute(num):
    u1, u2 = QQ(2, 5), QQ(7, 3)
    s = StateVector.vacuum(4, num.one())
    one_two = apply_row_operator("B", u2, apply_row_operator("B", u1, s, num),
                                 num)
    two_one = apply_row_operator("B", u1, apply_row_operator("B", u2, s, num),
                                 num)
    assert one_two == two_one


def test_wavefunction_kinds_agree_with_operator_products(num):
    us = spectral(num, 2)
    config = ParticleConfig(4, (2, 4))
    s = StateVector.vacuum(4, num.one())
    for u in us:
        s = apply_row_operator("B", u, s, num)
    assert wavefunction("psi", config, us, num) == \
        s.amplitude(config.bits(), num.zero())


def test_dual_wavefunction_transposes(num):
    # <x|prod B|vac> and <vac|prod C|x> arise from transposed words, and at
    # a packed configuration both equal the same partition function
    us = spectral(num, 2)
    packed = ParticleConfig(2, (1, 2))
    psi = wavefunction("psi", packed, us, num)
    s = StateVector.packed(2, num.one())
    for u in us:
        s = apply_row_operator("C", u, s, num)
    dual_value = s.amplitude(0, num.zero())
    assert psi != 0 and dual_value != 0


def test_matrix_element_known_value(sym):
    u = sym.spectral(1)[0]
    t, a, b, c, d, e, f = (sym.t, sym.a, sym.b, sym.c, sym.d, sym.e, sym.f)
    got = matrix_element("B", ParticleConfig(3, (1, 3)),
                         u, ParticleConfig(3, (2,)), sym)
    assert got == (1 - t) * c * u * (1 - t) * d * (1 - t) * c * u


def test_matrix_element_respects_particle_count(num):
    u = QQ(1, 2)
    assert matrix_element("B", ParticleConfig(3, (1,)), u,
                          ParticleConfig(3, (2,)), num) == 0


def test_inhomogeneous_weights_enter_row_sweep():
    p = ParamSet.sample(5, n_w=3)
    u = QQ(4, 9)
    s = apply_row_operator("A", u, StateVector.vacuum(3, p.one()), p)
    expected = p.one()
    for j in range(1, 4):
        expected = expected * (p.a * u + p.b * p.w[j - 1])
    assert s.amplitude(0, p.zero()) == expected


def test_rll_and_ybe_hold_numerically(num):
    assert check_rll(QQ(3, 7), QQ(5, 2), num)
    assert check_ybe(QQ(3, 7), QQ(5, 2), num)


def test_rll_and_ybe_hold_symbolically(sym):
    u1, u2 = sym.spectral(2)
    assert check_rll(u1, u2, sym)
    assert check_ybe(u1, u2, sym)


def test_rll_fails_off_the_constraint_surface():
    good = ParamSet.sample(23)
    bad = ParamSet.unchecked(good.t, good.a, good.b, good.c, good.d,
                             good.e, good.f + 1)
    assert not check_rll(QQ(3, 7), QQ(5, 2), bad)


WAVE_KINDS = ("psi", "psi_dual", "phi", "phi_dual")


def assert_sweep_matches_single_amplitudes(kind, m, us, p):
    """wavefunctions holds exactly the per-configuration wavefunctions."""
    n = len(us)
    amps = wavefunctions(kind, m, us, p)
    if kind in ("psi", "psi_dual"):
        configs = all_particle_configs(m, n)
    else:
        configs = [HoleConfig(m, c) for c in combinations(range(1, m + 1), n)]
    assert set(amps) == {c.bits() for c in configs}
    for config in configs:
        assert amps[config.bits()] == wavefunction(kind, config, us, p), \
            (kind, m, config)


@pytest.mark.parametrize("kind", WAVE_KINDS)
def test_sweep_matches_every_amplitude_numerically(num, kind):
    for m in range(1, 6):
        for n in range(m + 1):
            assert_sweep_matches_single_amplitudes(kind, m, spectral(num, n),
                                                   num)


@pytest.mark.parametrize("kind", WAVE_KINDS)
def test_sweep_matches_every_amplitude_with_inhomogeneities(kind):
    for m in (3, 4):
        p = ParamSet.sample(19, n_w=m)
        for n in range(m + 1):
            assert_sweep_matches_single_amplitudes(kind, m, spectral(p, n), p)


@pytest.mark.parametrize("kind", WAVE_KINDS)
def test_sweep_matches_every_amplitude_symbolically(sym, kind):
    assert_sweep_matches_single_amplitudes(kind, 4, sym.spectral(2), sym)


@pytest.mark.parametrize("inhomogeneous", [False, True])
def test_transposed_sweep_is_the_matrix_transpose(inhomogeneous):
    for m in (1, 2, 3):
        p = ParamSet.sample(29, n_w=m if inhomogeneous else 0)
        u = QQ(5, 11)
        for kind in "ABCD":
            for a in range(1 << m):
                for b in range(1 << m):
                    forward = apply_row_operator(
                        kind, u, StateVector.basis(m, b, p.one()), p)
                    covector = apply_row_operator(
                        kind, u, StateVector.basis(m, a, p.one()), p,
                        transpose=True)
                    assert forward.amplitude(a, p.zero()) == \
                        covector.amplitude(b, p.zero()), (kind, m, a, b)


# kind -> (row operator, starts packed, covector), as in the wavefunction
# docstrings: psi from B|vacuum>, phi_dual from C|packed>, phi from
# <packed|B and psi_dual from <vacuum|C
STEP_ROUTES = {
    "psi": ("B", False, False),
    "psi_dual": ("C", False, True),
    "phi": ("B", True, True),
    "phi_dual": ("C", True, False),
}


def _t0_set(beta):
    return ParamSet.unchecked(0, 1, 0, 1, 1, -1 / beta, -1)


def _cleared_sweep_cases():
    """(id, m, us, p, scalar) at every scalar kind the sweep clears.

    The t = 0 sets are built from ints, so their `p.one()` is rational and
    a symbolic beta gives rows that mix rationals and RatFuncs.
    """
    sym32 = ParamSet.symbolic_canonical(n_u=2)
    sym_w = ParamSet.symbolic_canonical(n_u=2, n_w=4)
    q = ParamSet.sample(11)
    q_w = ParamSet.sample(19, n_w=6)
    res = ParamSet.sample(13).map(Residue.of)
    vt = canonical_vartable(n_u=2, free_params=(), beta=True)
    sym_t0 = _t0_set(RatFunc(vt.var("beta")))
    return [
        ("symbolic-3-2", 3, sym32.spectral(2), sym32, RatFunc),
        ("rational-8-3", 8, spectral(q, 3), q, QQ),
        ("rational-w-6-3", 6, spectral(q_w, 3), q_w, QQ),
        ("symbolic-w-4-2", 4, sym_w.spectral(2), sym_w, RatFunc),
        ("residue-5-2", 5, [Residue.of(u) for u in spectral(q, 2)], res,
         Residue),
        ("t0-symbolic-beta-4-2", 4,
         [RatFunc(vt.var("u1")), RatFunc(vt.var("u2"))], sym_t0, RatFunc),
        ("t0-rational-beta-4-2", 4, spectral(q, 2), _t0_set(QQ(7, 3)), QQ),
    ]


CLEARED_SWEEP_CASES = _cleared_sweep_cases()


@pytest.mark.parametrize("kind", WAVE_KINDS)
@pytest.mark.parametrize("case", CLEARED_SWEEP_CASES,
                         ids=[c[0] for c in CLEARED_SWEEP_CASES])
def test_cleared_sweep_matches_the_step_by_step_route(case, kind):
    # the sweep divides once at the end; apply_row_operator divides after
    # every operator, so both must give the same amplitudes, byte for byte
    _, m, us, p, scalar = case
    op, packed, covector = STEP_ROUTES[kind]
    s = StateVector.packed(m, p.one()) if packed else \
        StateVector.vacuum(m, p.one())
    for u in us:
        s = apply_row_operator(op, u, s, p, transpose=covector)
    amps = wavefunctions(kind, m, us, p)
    cls = ParticleConfig if kind in ("psi", "psi_dual") else HoleConfig
    for x in combinations(range(1, m + 1), len(us)):
        config = cls(m, x)
        expected = s.amplitude(config.bits(), p.zero())
        for got in (amps[config.bits()], wavefunction(kind, config, us, p)):
            assert got == expected, (kind, x)
            # an amplitude no path reaches is p.zero(), a rational at t = 0
            want = scalar if expected != 0 else type(p.zero())
            assert type(got) is want and type(expected) is want, (kind, x)
            assert str(got) == str(expected), (kind, x)


@pytest.mark.parametrize("kind", WAVE_KINDS)
def test_single_amplitude_never_builds_the_full_state(monkeypatch, kind):
    # one column sweep per site, each on the N = 3 auxiliary bits: the ice
    # rule fixes how many of them are set, so no state holds more than
    # C(3, k) <= 3 entries
    sizes = []
    row_sweep = lattice._row_sweep

    def recording(*args):
        out = row_sweep(*args)
        sizes.append(len(out.amps))
        return out

    p = ParamSet.sample(37)
    us = spectral(p, 3)
    cls = ParticleConfig if kind in ("psi", "psi_dual") else HoleConfig
    configs = [cls(8, x) for x in ((1, 2, 3), (2, 5, 7), (4, 6, 8),
                                   (6, 7, 8))]
    monkeypatch.setattr(lattice, "_row_sweep", recording)
    for config in configs:
        wavefunction(kind, config, us, p)
    assert len(sizes) == 8 * len(configs)
    assert max(sizes) <= 3


def _far_cases():
    q = ParamSet.sample(23)
    res = ParamSet.sample(29).map(Residue.of)
    return [(f"{name}-{m}-{n}", m, us, p)
            for m, n in ((10, 4), (9, 2))
            for name, p, us in (
                ("rational", q, spectral(q, n)),
                ("residue", res, [Residue.of(u) for u in spectral(q, n)]))]


FAR_CASES = _far_cases()


@pytest.mark.parametrize("kind", WAVE_KINDS)
@pytest.mark.parametrize("case", FAR_CASES, ids=[c[0] for c in FAR_CASES])
def test_column_contraction_matches_the_row_sweep_when_m_exceeds_n(case,
                                                                   kind):
    # far more columns than rows: each single amplitude equals the row
    # route's value for it, in value, type and rendering
    _, m, us, p = case
    amps = wavefunctions(kind, m, us, p)
    cls = ParticleConfig if kind in ("psi", "psi_dual") else HoleConfig
    xs = list(combinations(range(1, m + 1), len(us)))
    for x in xs[::max(1, len(xs) // 12)] + [xs[-1]]:
        want = amps[cls(m, x).bits()]
        got = wavefunction(kind, cls(m, x), us, p)
        assert got == want and type(got) is type(want), (kind, x)
        assert str(got) == str(want), (kind, x)


@pytest.mark.parametrize("kind", WAVE_KINDS)
def test_empty_configuration_amplitude_is_one_of_the_scalar_mode(kind):
    # no rows (N = 0) or no columns (M = 0): the amplitude is the empty
    # product, in the parameters' own scalar mode
    cls = ParticleConfig if kind in ("psi", "psi_dual") else HoleConfig
    for p in (ParamSet.sample(3), ParamSet.sample(3).map(Residue.of),
              ParamSet.symbolic_canonical(), ParamSet.sample(3, n_w=4),
              _t0_set(QQ(7, 3))):
        for m in (0, 4) if p.w is None else (4,):
            got = wavefunction(kind, cls(m, ()), [], p)
            assert got == p.one() and type(got) is type(p.one()), (kind, p)
            assert str(got) == str(p.one())


def test_zero_site_row_operators_act_as_their_empty_products(num):
    # with no sites the auxiliary line passes straight through: A and D
    # act as the identity, and B and C, which flip it, vanish
    one = num.one()
    for op, survives in (("A", True), ("B", False), ("C", False),
                         ("D", True)):
        s = apply_row_operator(op, QQ(2, 5), StateVector.vacuum(0, one), num)
        assert s == (StateVector.vacuum(0, one) if survives
                     else StateVector(0)), op


def test_particle_kinds_reject_a_hole_config(num):
    # HoleConfig(4, (1, 2)) has the bits of ParticleConfig(4, (3, 4))
    for kind in ("psi", "psi_dual"):
        with pytest.raises(RingError):
            wavefunction(kind, HoleConfig(4, (1, 2)), spectral(num, 2), num)


def test_hole_kinds_reject_a_particle_config(num):
    for kind in ("phi", "phi_dual"):
        with pytest.raises(RingError):
            wavefunction(kind, ParticleConfig(4, (1, 2)), spectral(num, 2),
                         num)


def test_unknown_row_operator_is_a_ring_error(num):
    with pytest.raises(RingError):
        apply_row_operator("X", QQ(1, 2), StateVector.vacuum(3, num.one()),
                           num)


def test_sweep_rejects_unknown_kinds_and_too_many_parameters(num):
    with pytest.raises(RingError):
        wavefunctions("chi", 3, spectral(num, 1), num)
    with pytest.raises(RingError):
        wavefunctions("phi", 3, spectral(num, 4), num)


@pytest.mark.parametrize("n_w, budget", [(0, 8), (6, 8 * 6)])
def test_row_operator_computes_each_local_weight_once(monkeypatch, n_w,
                                                      budget):
    # the weights depend on the site alone, never on the frontier entry
    calls = []

    def counting(*args):
        calls.append(args)
        return l_weight(*args)

    p = ParamSet.sample(31, n_w=n_w)
    s = StateVector(6, {c.bits(): QQ(k + 1, 3) for k, c in
                        enumerate(all_particle_configs(6, 3))})
    monkeypatch.setattr(lattice, "l_weight", counting)
    out = apply_row_operator("B", QQ(2, 9), s, p)
    assert particle_counts(out) == {4}
    assert len(calls) <= budget


@pytest.mark.parametrize("n_w", [0, 7])
def test_single_amplitude_computes_each_local_weight_once(monkeypatch, n_w):
    # one table per spectral parameter, or per (spectral parameter, w),
    # shared by every column: six ice-rule moves each, never per column
    calls = []

    def counting(*args):
        calls.append(args)
        return l_weight(*args)

    p = ParamSet.sample(31, n_w=n_w)
    us = spectral(p, 3)
    monkeypatch.setattr(lattice, "l_weight", counting)
    for kind in WAVE_KINDS:
        cls = ParticleConfig if kind in ("psi", "psi_dual") else HoleConfig
        calls.clear()
        wavefunction(kind, cls(7, (2, 3, 6)), us, p)
        assert len(calls) == 6 * len(us) * (n_w or 1), kind


def test_state_vectors_differ_in_support_size_or_type():
    s = StateVector(3, {0b001: QQ(2), 0b100: QQ(1)})
    assert s == StateVector(3, {0b001: QQ(2), 0b100: QQ(1), 0b010: QQ(0)})
    others = [StateVector(3, {0b001: QQ(2), 0b010: QQ(1)}),
              StateVector(4, {0b001: QQ(2), 0b100: QQ(1)}),
              {0b001: QQ(2), 0b100: QQ(1)}]
    for other in others:
        assert (s == other) is False and (s != other) is True, other


def test_state_vector_repr_counts_nonzero_states():
    assert repr(StateVector(3, {1: QQ(2), 4: QQ(0), 5: QQ(1)})) == \
        "StateVector(m=3, 2 states)"
    assert repr(StateVector(2)) == "StateVector(m=2, 0 states)"
