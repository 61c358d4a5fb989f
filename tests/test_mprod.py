"""Auxiliary-space operator pair: recursion, diagonalization, algebra."""

import pytest

from vertexpoly.lattice import ParticleConfig, all_particle_configs, \
    wavefunction
from vertexpoly.mprod import (k_closed_form, k_prefactor, mat_add, mat_eq,
                              mat_identity, mat_mul, mat_scale, mp_build,
                              mp_diagonalized, raising_parts,
                              trace_wavefunction)
from vertexpoly.params import ParamSet
from vertexpoly.ring import QQ, Residue, canonical_vartable


@pytest.fixture
def num():
    return ParamSet.sample(31)


def spectral(n, seed=5):
    import random
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        v = QQ(rng.randint(1, 999), rng.randint(1, 999))
        if v not in out:
            out.append(v)
    return out


def test_base_case_matrices(num):
    u1 = QQ(2, 7)
    a_mat, c_mat = mp_build([u1], num)
    assert a_mat[0][0] == num.a * u1 + num.b
    assert a_mat[1][1] == num.e * u1 + num.f
    assert a_mat[0][1] == 0 and a_mat[1][0] == 0
    assert c_mat[0][1] == (1 - num.t) * num.c * u1
    assert c_mat[0][0] == 0 and c_mat[1][0] == 0 and c_mat[1][1] == 0


def test_matrix_helpers(num):
    one = num.one()
    i2 = mat_identity(2, num)
    m = [[one, 2 * one], [3 * one, 4 * one]]
    assert mat_eq(mat_mul(i2, m), m)
    assert mat_eq(mat_add(m, mat_scale(-one, m)),
                  [[num.zero()] * 2 for _ in range(2)])


def test_word_route_equals_direct_wavefunction(num):
    for n in (3, 4):
        us = spectral(n)
        for config in all_particle_configs(6, n):
            assert trace_wavefunction(config, us, num) == \
                wavefunction("psi", config, us, num)


def test_word_route_equals_direct_wavefunction_on_residues(num):
    p = num.map(Residue.of)
    us = [Residue.of(u) for u in spectral(3)]
    for config in all_particle_configs(6, 3):
        amp = trace_wavefunction(config, us, p)
        assert isinstance(amp, Residue)
        assert amp == wavefunction("psi", config, us, p)


def test_word_route_symbolically_small():
    vt = canonical_vartable(n_u=2)
    p = ParamSet.symbolic_over(vt)
    us = p.spectral(2)
    for config in all_particle_configs(3, 2):
        assert trace_wavefunction(config, us, p) == \
            wavefunction("psi", config, us, p)


def test_diagonalization_conjugates_correctly(num):
    us = spectral(3)
    diag, parts, g, g_inv = mp_diagonalized(us, num)
    a_mat, c_mat = mp_build(us, num)
    n = len(diag)
    assert mat_eq(mat_mul(g, g_inv), mat_identity(n, num))
    assert mat_eq(mat_mul(g_inv, mat_mul(a_mat, g)), diag)
    assert all(diag[i][j] == 0 for i in range(n) for j in range(n) if i != j)
    total = parts[0]
    for piece in parts[1:]:
        total = mat_add(total, piece)
    assert mat_eq(mat_mul(g, mat_mul(total, g_inv)), c_mat)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_algebra_relations(num, n):
    us = spectral(n)
    t, a, b, e, f = num.t, num.a, num.b, num.e, num.f
    a_mat, _ = mp_build(us, num)
    parts = raising_parts(us, num)
    for j in range(n):
        uj = us[j]
        ratio = (e * uj + f) / (a * uj + b)
        assert mat_eq(mat_mul(parts[j], a_mat),
                      mat_scale(ratio, mat_mul(a_mat, parts[j])))
        square = mat_mul(parts[j], parts[j])
        assert all(v == 0 for row in square for v in row)
        for k in range(n):
            if k == j:
                continue
            uk = us[k]
            ratio = (e * uj + f) * (a * uk + b) * (uj - t * uk) \
                / ((a * uj + b) * (e * uk + f) * (t * uj - uk))
            assert mat_eq(mat_mul(parts[j], parts[k]),
                          mat_scale(ratio, mat_mul(parts[k], parts[j])))


@pytest.mark.parametrize("n,m", [(1, 3), (2, 4), (3, 6)])
def test_prefactor_closed_form(num, n, m):
    # over Q and over GF(p); comparing a residue with a rational raises
    for p, scalar in ((num, QQ), (num.map(Residue.of), Residue.of)):
        us = [scalar(u) for u in spectral(n)]
        assert k_prefactor(m, us, p) == k_closed_form(m, us, p)


def test_prefactor_closed_form_symbolic():
    vt = canonical_vartable(n_u=2)
    p = ParamSet.symbolic_over(vt)
    us = p.spectral(2)
    assert k_prefactor(4, us, p) == k_closed_form(4, us, p)


def test_mat_mul_all_zero_row_gives_exact_zero(num):
    vt = canonical_vartable(n_u=1)
    sym = ParamSet.symbolic_over(vt)
    for p in (num, sym):
        zero, one = p.zero(), p.one()
        x = [[zero, zero], [one, zero]]
        y = [[one + one, one], [one, one + one]]
        prod = mat_mul(x, y)
        assert prod == [[zero, zero], [one + one, one]]
        assert all(type(v) is type(zero) and v == 0 for v in prod[0])
