"""Mutation kill matrix: every check can fail, and each one does on a fault
in the route it guards.

A check that cannot fail proves nothing.  Each mutant below plants one
fault in one route of `src/` (DeMillo, Lipton and Sayward, "Hints on test
data selection", IEEE Computer 11(4), 1978) and the default suite runs
against it: at eval (4, 2) with one trial, and for a mutant of code that
only exact mode runs, also at exact (3, 2).  The checks that fail are
pinned per mutant, so a change that weakens a check changes this table.

A source mutant rewrites one unique snippet of a function's source and
compiles the result in the function's own module namespace.  The new
function is rebound wherever the original is looked up at call time: in
every `vertexpoly` module namespace that holds it (`verify` imports most
routes by name), in every function default argument that captured it
(`check_ik_properties(..., z_fn=z_sum)`), and in every class attribute that
aliases a method (`__radd__ = __add__`).  A table mutant replaces one entry
of a module-level table.  A mutant that no check can see is equivalent and
says why; a mutant that no check sees for want of a check is a blind spot.
"""

import inspect
import sys
import textwrap
import types
from collections import namedtuple

import pytest

from vertexpoly import dwbp, lattice, mprod, ring, sympoly, verify
from vertexpoly.verify import CHECK_NAMES, default_suite, run_check


def _sites():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "vertexpoly"
                                  or name.startswith("vertexpoly."))]


def _edit(module, qualname, old, new):
    """A patch replacing the one occurrence of `old` in a function's source."""
    def patch(monkeypatch):
        *path, name = qualname.split(".")
        owner = module
        for attr in path:
            owner = getattr(owner, attr)
        orig = vars(owner)[name]
        src = textwrap.dedent(inspect.getsource(orig))
        assert src.count(old) == 1, f"{qualname}: {old!r} is not unique"
        scope = {}
        exec(compile(src.replace(old, new), inspect.getsourcefile(orig),
                     "exec"), orig.__globals__, scope)
        mutant = scope[name]
        if path:
            for key, val in list(vars(owner).items()):
                if val is orig:
                    monkeypatch.setattr(owner, key, mutant)
            return
        for site in _sites():
            for key, val in list(vars(site).items()):
                if val is orig:
                    monkeypatch.setattr(site, key, mutant)
                elif isinstance(val, types.FunctionType) and any(
                        d is orig for d in val.__defaults__ or ()):
                    monkeypatch.setattr(val, "__defaults__", tuple(
                        mutant if d is orig else d for d in val.__defaults__))
    return patch


def _entry(table, key, index, value):
    """A patch replacing field `index` of one entry of a tuple table."""
    def patch(monkeypatch):
        row = list(table[key])
        row[index] = value
        monkeypatch.setitem(table, key, tuple(row))
    return patch


# aim: the check the fault is aimed at.  mode: "eval" runs the eval pass
# only; "exact" marks code that eval mode never runs, so the eval pass must
# pass and the exact pass must fail `kills`.  equivalent: why no check can
# see the mutant.
Mutant = namedtuple("Mutant", "name aim mode patch kills equivalent",
                    defaults=(None,))

MUTANTS = [
    # -- lattice weights and the exchange checkers
    Mutant("l_weight-11-11-times-t", "rll", "eval",
           _edit(lattice, "l_weight", "return p.e * u + p.t * p.f * w",
                 "return p.t * (p.e * u + p.t * p.f * w)"),
           "correspondence pairing mp-algebra rll dwbp"),
    Mutant("l_weight-01-10-times-2", "correspondence", "eval",
           _edit(lattice, "l_weight", "return (1 - p.t) * p.d * w",
                 "return 2 * (1 - p.t) * p.d * w"),
           "correspondence pairing mp-algebra rll"),
    Mutant("r_weight-01-10-times-2", "ybe", "eval",
           _edit(lattice, "r_weight", "else 1 - p.t", "else 2 * (1 - p.t)"),
           "rll ybe"),
    Mutant("r_weight-diagonal-u-minus-t-squared", "ybe", "eval",
           _edit(lattice, "r_weight", "return u - p.t",
                 "return u - p.t * p.t"),
           "rll ybe"),
    Mutant("check_rll-at-u2-over-u1", "rll", "eval",
           _edit(lattice, "check_rll", "u1 / u2", "u2 / u1"),
           "rll"),
    Mutant("check_ybe-at-u1-times-u2", "ybe", "eval",
           _edit(lattice, "check_ybe", "emb(u1 / u2, 0, 1)",
                 "emb(u1 * u2, 0, 1)"),
           "ybe"),
    Mutant("phi-read-as-a-state", "correspondence", "eval",
           _entry(lattice._WAVE_KINDS, "phi", 2, False),
           "correspondence pairing"),
    # the cleared sweep's scale: residues clear with d = 1, so only exact
    # mode can see a wrong factor
    Mutant("row-scale-drops-one-site-d", "correspondence", "exact",
           _edit(lattice, "_row_weights", "d ** m", "d ** (m - 1)"),
           "correspondence mp-algebra"),
    Mutant("row-scale-drops-first-site-d-with-w", "dwbp", "exact",
           _edit(lattice, "_row_weights", "for _, d in tables)",
                 "for _, d in tables[1:])"),
           "dwbp"),
    # the column contraction of one amplitude: the covector kinds run their
    # quantum lines from the start state's bit to the configuration's, the
    # wrong way up; pairing reads the single amplitudes
    Mutant("wavefunction-covector-columns-upside-down", "pairing", "eval",
           _edit(lattice, "wavefunction",
                 "(config.bits(), start) if covector",
                 "(start, config.bits()) if covector"),
           "pairing"),
    # -- closed-form families and skew factors
    Mutant("G-site-forms-swapped", "correspondence", "eval",
           _entry(sympoly._FAMILY_ROWS, "G", 0, (0, 2)),
           "correspondence pairing branching degeneration"),
    Mutant("Gbar-inversion-unflipped", "branching", "eval",
           _entry(sympoly._FAMILY_ROWS, "Gbar", 2, False),
           "correspondence pairing branching"),
    Mutant("H-prefactor-with-d", "pairing", "eval",
           _entry(sympoly._FAMILY_ROWS, "H", 1, False),
           "correspondence pairing"),
    Mutant("Hbar-without-outer-t", "pairing", "eval",
           _entry(sympoly._FAMILY_ROWS, "Hbar", 3, False),
           "correspondence pairing branching"),
    # the cleared permutation sum's scale, seen only in exact mode
    Mutant("family_poly-scale-drops-first-site-d", "correspondence",
           "exact",
           _edit(sympoly, "family_poly", "scale * site_d **",
                 "scale * (1 if u is us[0] else site_d) **"),
           "correspondence pairing branching degeneration"),
    Mutant("skew_factor-counts-q-as-occupied", "branching", "eval",
           _edit(sympoly, "skew_factor", "if pj < v < qj)",
                 "if pj < v <= qj)"),
           "branching"),
    Mutant("interlaces-strict-on-the-right", "branching", "eval",
           _edit(sympoly, "interlaces", "y[j] <= xv <= y[j + 1]",
                 "y[j] <= xv < y[j + 1]"),
           "branching"),
    # -- the t = 0 degeneration
    Mutant("config_to_young-parts-plus-1", "degeneration", "eval",
           _edit(sympoly, "config_to_young", "- n + j - 1", "- n + j"),
           "degeneration"),
    Mutant("grothendieck_det-vandermonde-reversed", "degeneration", "eval",
           _edit(sympoly, "grothendieck_det", "(zs[j] - zs[k])",
                 "(zs[k] - zs[j])"),
           "degeneration"),
    # -- domain-wall partition functions
    Mutant("z_det_hom-columns-from-0", "pairing", "eval",
           _edit(dwbp, "z_det_hom", "for k in range(1, n + 1)]",
                 "for k in range(n)]"),
           "pairing dwbp"),
    Mutant("z_det_hom-dual-t-power-minus-1", "pairing", "eval",
           _edit(dwbp, "z_det_hom", "t ** (n * n)", "t ** (n * n - 1)"),
           "pairing"),
    Mutant("z_det_inhom-vandermonde-reversed", "dwbp", "eval",
           _edit(dwbp, "z_det_inhom", "(ws[k] - ws[j])", "(ws[j] - ws[k])"),
           "dwbp"),
    # the cleared determinants' row scales: residues clear with d = 1, so
    # only exact mode can see a wrong power of a row's d
    Mutant("z_det_hom-row-scale-2n-minus-1", "pairing", "exact",
           _edit(dwbp, "z_det_hom", "row_d ** (2 * n)",
                 "row_d ** (2 * n - 1)"),
           "pairing dwbp"),
    Mutant("z_det_inhom-row-scale-n", "dwbp", "exact",
           _edit(dwbp, "z_det_inhom", "row_d ** (n - 1)", "row_d ** n"),
           "dwbp"),
    Mutant("z_sum-column-band-on-w_j", "dwbp", "eval",
           _edit(dwbp, "z_sum", "f * ws[k])", "f * ws[j])"),
           "ik-properties dwbp"),
    Mutant("check_ik_properties-z_fn-doubled", "ik-properties", "eval",
           _edit(dwbp, "check_ik_properties", "z_fn=z_sum",
                 "z_fn=lambda us, p, ws=None: 2 * z_sum(us, p, ws=ws)"),
           "ik-properties"),
    Mutant("check_ik_properties-recursion-a-power-n", "ik-properties",
           "eval",
           _edit(dwbp, "check_ik_properties", "p.a ** (n - 1)", "p.a ** n"),
           "ik-properties"),
    # -- the matrix-product algebra
    # the recursion that builds the pair lives in _cleared_pair; the fault
    # puts (1 - t) c in the lower-left block of A instead of (1 - t) d
    Mutant("mp_build-lower-left-block-with-c", "mp-algebra", "eval",
           _edit(mprod, "_cleared_pair", "(1 - p.t) * p.d",
                 "(1 - p.t) * p.c"),
           "mp-algebra"),
    Mutant("k_closed_form-power-m-minus-1", "mp-algebra", "eval",
           _edit(mprod, "k_closed_form", "(a * u + b) ** m",
                 "(a * u + b) ** (m - 1)"),
           "mp-algebra"),
    Mutant("trace_wavefunction-C-after-its-A-run", "mp-algebra", "eval",
           _edit(mprod, "trace_wavefunction",
                 "word += [c_mat] + [a_mat] * (x[j] - x[j - 1] - 1)",
                 "word += [a_mat] * (x[j] - x[j - 1] - 1) + [c_mat]"),
           "mp-algebra"),
    # the cleared word's scale: residues clear with d = 1, so only exact
    # mode can see a wrong factor
    Mutant("trace_wavefunction-divides-by-D-to-M-minus-1", "mp-algebra",
           "exact",
           _edit(mprod, "trace_wavefunction", "scale ** config.m",
                 "scale ** (config.m - 1)"),
           "mp-algebra"),
    # -- ring code only symbolic arithmetic runs
    # the domain-wall determinants expand their own cleared rows with
    # `laplace`, so of the checks only the Grothendieck bialternant
    # (degeneration) still divides through `determinant`
    Mutant("determinant-keeps-last-row-denominator", "degeneration", "exact",
           _edit(ring, "determinant", "laplace(rows), prod(dens))",
                 "laplace(rows), dens[-1])"),
           "degeneration"),
    Mutant("RatFunc-add-scales-wrong-numerator", "rll", "exact",
           _edit(ring, "RatFunc.__add__",
                 "return RatFunc(self.num + other.num * q, self.den)",
                 "return RatFunc(self.num * q + other.num, self.den)"),
           "branching degeneration mp-algebra rll ybe"),
    Mutant("exact-point-u-reversed", None, "exact",
           _edit(verify, "_points", 'p.spectral(n_u), "symbolic"',
                 'p.spectral(n_u)[::-1], "symbolic"'),
           "",
           equivalent="the exact point is symbolic, and an identity in "
                      "u1..un holds under any renaming of them"),
]


def _failing(**kw):
    return {r.name for r in map(run_check, default_suite(**kw))
            if not r.passed}


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_fails_the_pinned_checks(monkeypatch, mutant):
    mutant.patch(monkeypatch)
    failing = _failing(m=4, n=2, mode="eval", trials=1)
    if mutant.mode == "exact":
        assert failing == set()
        failing = _failing(m=3, n=2, mode="exact")
    assert failing == set(mutant.kills.split())


def test_every_check_fails_on_a_mutant_aimed_at_it():
    for m in MUTANTS:
        if m.equivalent:
            assert not m.kills and m.aim is None, m.name
        else:
            assert m.aim in m.kills.split(), m.name
    for name in CHECK_NAMES:
        aimed = [m.name for m in MUTANTS if m.aim == name]
        assert len(aimed) >= 2, (name, aimed)
