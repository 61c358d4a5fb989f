"""Identity harness: every main identity as a named, runnable check.

Each check computes one identity along two independent paths and compares
with exact equality (zero tolerance).  Exact mode works symbolically over
rational functions; eval mode evaluates at `trials` seeded random points.

Eval mode and its field.  Eight checks (correspondence, pairing,
branching, degeneration, mp-algebra, rll, ybe, dwbp) draw each point over
Q and then map the parameters, the spectral list, the inhomogeneities and
degeneration's beta into GF(p), p = 2^61 - 1, with `Residue.of`; both
routes of every identity then run on residues, so no rational grows.  The draws themselves (and
their salts) are the ones an evaluation over Q would use.  Soundness:

- each draw is n/d with 1 <= n, d <= 10^6 < p, so no draw is 0 mod p, and
  two draws are congruent only if they are equal over Q, because
  |n1 d2 - n2 d1| < 10^12 < p; distinctness of the spectral parameters
  and of the inhomogeneities carries over;
- the derived e = -tcd/b and f = -cd/a have numerators and denominators
  that are products of three factors in [1, 10^6], and p is prime, so
  none of them is divisible by p;
- by Schwartz-Zippel (Schwartz 1980; Zippel 1979) a nonzero difference of
  degree deg vanishes at a random point with probability about deg/p
  (about 10^-17 here) per trial.  A denominator that vanishes mod p but
  not over Q is as unlikely, and stays a computation error;
- `degeneration` evaluates the first family G at t = 0 itself, in both
  modes.  With a = c = d = 1 and b = t*beta, every t != 0 gives
  e = -tcd/b = -1/beta and f = -cd/a = -1, so the parameter family extends
  to t = 0 as (t, a, b, c, d, e, f) = (0, 1, 0, 1, 1, -1/beta, -1).
  `family_poly` only multiplies by the site forms and G has no 1/t; its one
  division is by prod (u_j - u_k)(t u_k - u_j), which at t = 0 is
  prod (u_j - u_k)(-u_j), nonzero for distinct nonzero u.  So G is regular
  at t = 0 and its value there is the limit t -> 0 of the family built
  symbolically in t.  Exact mode takes u1..un and beta as symbols; eval
  mode draws them.  On the Grothendieck side z_j = -1/beta - 1/u_j is
  nonzero mod p, because u_j + beta has a positive numerator below
  2 * 10^12 < p, and distinct draws stay distinct, so the Vandermonde in z
  is nonzero mod p.

A numeric params override with a scalar whose numerator or denominator p
divides has no faithful image in GF(p); such a spec's points stay over Q,
through the same code.  `ik-properties` stays over Q because its degree
property lifts the numeric point into rational-function constants in w_N.
`CheckReport.breakdown["field"]` records which field ran.

Checks are independent; `run_checks` runs them one after another on the
calling thread, in the order requested.  Given the same CheckSpec, a report
is reproducible except for its wall-time field.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .dwbp import check_ik_properties, z_det_hom, z_det_inhom, z_sum
from .lattice import (_WAVE_KINDS, ParticleConfig, all_particle_configs,
                      check_rll, check_ybe, wavefunction, wavefunctions)
from .mprod import (k_closed_form, k_prefactor, mat_add, mat_eq, mat_mul,
                    mat_scale, mp_build, raising_parts, trace_wavefunction)
from .params import ParamSet
from .ring import (PRIME, RatFunc, Residue, RingError,
                   canonical_vartable, distinct_rationals, random_rational)
from .sympoly import (degeneration_rhs, family_poly, interlaces, skew_factor)

__all__ = ["CheckSpec", "CheckReport", "CHECK_NAMES", "SpecError",
           "run_check", "run_checks", "default_suite", "reports_to_jsonl"]


_CONFIG_SAMPLE_LIMIT = 500


# the checks whose eval mode runs over GF(PRIME)
_RESIDUE_CHECKS = frozenset({"correspondence", "pairing", "branching",
                             "degeneration", "mp-algebra", "rll", "ybe",
                             "dwbp"})


class SpecError(RingError):
    """A CheckSpec asks for a mode or sizes its check cannot run at."""


# the sizes a check runs at; outside them it would compare nothing, or
# compare against a side it cannot build
_SIZE_RULES = {
    "correspondence": (lambda m, n: 0 <= n <= m, "0 <= n <= m"),
    "pairing": (lambda m, n: 0 <= n <= m, "0 <= n <= m"),
    "branching": (lambda m, n: 0 <= n < m, "0 <= n < m"),
    "degeneration": (lambda m, n: 0 <= n <= m, "0 <= n <= m"),
    "mp-algebra": (lambda m, n: 1 <= n <= m, "1 <= n <= m"),
    "ik-properties": (lambda m, n: n >= 2, "n >= 2"),
    "dwbp": (lambda m, n: n >= 1, "n >= 1"),
}


@dataclass(frozen=True)
class CheckSpec:
    """What to check, at which sizes, in which mode."""

    name: str
    m: int = 4
    n: int = 2
    mode: str = "exact"
    seed: int = 0
    trials: int = 5
    params: ParamSet = None

    def __post_init__(self):
        if self.mode not in ("exact", "eval"):
            raise SpecError(f"unknown mode {self.mode!r}")
        if self.mode == "eval" and self.trials < 1:
            raise SpecError("eval mode requires trials >= 1")
        valid, rule = _SIZE_RULES.get(self.name, (lambda m, n: True, ""))
        if not valid(self.m, self.n):
            raise SpecError(f"{self.name} needs {rule}, got m={self.m}, "
                            f"n={self.n}")
        if self.m < 0 or self.n < 0:
            raise SpecError(f"{self.name} needs m, n >= 0, got m={self.m}, "
                            f"n={self.n}")


@dataclass
class CheckReport:
    """Outcome of one check: overall verdict plus the first failure seen."""

    name: str
    passed: bool
    breakdown: dict = field(default_factory=dict)
    witness: dict = None
    ms: float = 0.0

    def to_json(self):
        return json.dumps({"name": self.name, "pass": self.passed,
                           "witness": self.witness, "ms": round(self.ms, 1)},
                          sort_keys=True)


class _Recorder:
    """Accumulates comparisons, keeping the first failing witness."""

    def __init__(self):
        self.passed = True
        self.count = 0
        self.witness = None

    def compare(self, lhs, rhs, **where):
        self.count += 1
        if lhs != rhs and self.witness is None:
            self.passed = False
            self.witness = dict(where, lhs=str(lhs), rhs=str(rhs))

    def expect(self, ok, **where):
        self.count += 1
        if not ok and self.witness is None:
            self.passed = False
            self.witness = dict(where)


def _rng(spec, salt):
    return random.Random((spec.seed * 0x9E3779B1 + salt) & 0xFFFFFFFF)


def _trial_params(spec, trial):
    """Numeric params for one eval-mode trial: the override or a seeded draw."""
    return spec.params or ParamSet.sample(spec.seed * 7919 + trial * 31 + 1)


def _reduces(params):
    """True when a params override maps faithfully into GF(PRIME).

    That fails for a symbolic override, and for a numeric one with a
    nonzero numerator or a denominator that PRIME divides.
    """
    if params is None:
        return True
    if params.symbolic:
        return False
    scalars = [params.t, params.a, params.b, params.c, params.d, params.e,
               params.f, *(params.w or ())]
    return all(v.denominator % PRIME and (v.numerator % PRIME or v == 0)
               for v in scalars)


def _field(spec):
    """The field a check's points live in: "GF(2^61-1)" or "Q"."""
    if spec.mode == "eval" and spec.name in _RESIDUE_CHECKS \
            and _reduces(spec.params):
        return "GF(2^61-1)"
    return "Q"


def _points(spec, n_u, n_w=0):
    """(params, spectral list, tag) for every point a check runs at.

    Exact mode yields the one symbolic point, tagged "symbolic"; a numeric
    params override is lifted into its table as constants (keeping any
    constraint violations intact, which is what fault-injection tests rely
    on).  Eval mode yields one seeded numeric point per trial, tagged with
    the trial number, mapped into GF(PRIME) unless `_field` says Q.
    With n_w > 0 the params carry n_w inhomogeneities, symbolic or seeded
    to match.
    """
    if spec.mode == "exact":
        p = spec.params
        if p is None or not p.symbolic:
            p = ParamSet.symbolic_canonical(n_u, n_w, numeric=p)
        yield p, p.spectral(n_u), "symbolic"
        return
    residues = _field(spec) != "Q"
    for trial in range(spec.trials):
        p = _trial_params(spec, trial)
        if n_w:
            ws = distinct_rationals(_rng(spec, 2000 + trial), n_w)
            p = ParamSet.unchecked(p.t, p.a, p.b, p.c, p.d, p.e, p.f, w=ws)
        us = distinct_rationals(_rng(spec, 1000 + trial), n_u)
        if residues:
            p, us = p.map(Residue.of), [Residue.of(u) for u in us]
        yield p, us, trial


def _position_tuples(m, n, rng):
    """All n-subsets of 1..m, or a seeded sample when there are too many."""
    if comb(m, n) <= _CONFIG_SAMPLE_LIMIT:
        return list(combinations(range(1, m + 1), n))
    seen = set()
    while len(seen) < _CONFIG_SAMPLE_LIMIT:
        seen.add(tuple(sorted(rng.sample(range(1, m + 1), n))))
    return sorted(seen)


# -- the checks ---------------------------------------------------------


def check_correspondence(spec):
    """Lattice wavefunctions equal the closed-form families, all four kinds."""
    rec = _Recorder()
    positions = _position_tuples(spec.m, spec.n, _rng(spec, 7))
    for p, us, tag in _points(spec, spec.n):
        for wf_kind, (*_, flavour, fam_kind) in _WAVE_KINDS.items():
            amps = wavefunctions(wf_kind, spec.m, us, p)
            for pos in positions:
                config = flavour(spec.m, pos)
                rec.compare(amps[config.bits()],
                            family_poly(fam_kind, config, us, p),
                            kind=fam_kind, config=pos, trial=tag)
    return rec


def check_pairing(spec):
    """Complementary-configuration sums equal a single determinant.

    Route one compares against the homogeneous determinant evaluated with
    the full spectral list; route two inserts a completeness relation and
    compares against the fully packed wavefunction.  Both the particle and
    the dual (hole) versions run.  The lattice side of route two is the dot
    product of one hole-kind sweep on the first M - N spectral parameters
    and one particle-kind sweep on the last N.
    """
    rec = _Recorder()
    m, n = spec.m, spec.n
    packed = ParticleConfig(m, tuple(range(1, m + 1)))
    for p, us, tag in _points(spec, m):
        us_first, us_last = us[:m - n], us[m - n:]
        for dual in (False, True):
            wf_h, wf_g = ("phi_dual", "psi_dual") if dual else ("phi", "psi")
            h_kind, g_kind = _WAVE_KINDS[wf_h][-1], _WAVE_KINDS[wf_g][-1]
            # a configuration and its holes share their basis bits
            amps_h = wavefunctions(wf_h, m, us_first, p)
            amps_g = wavefunctions(wf_g, m, us_last, p)
            sum_families = None
            sum_lattice = None
            for config in all_particle_configs(m, n):
                holes = config.complement()
                fam = family_poly(h_kind, holes, us_first, p) \
                    * family_poly(g_kind, config, us_last, p)
                lat = amps_h[config.bits()] * amps_g[config.bits()]
                sum_families = fam if sum_families is None else sum_families + fam
                sum_lattice = lat if sum_lattice is None else sum_lattice + lat
            rec.compare(sum_families, z_det_hom(m, us, p, dual=dual),
                        route="determinant", dual=dual, trial=tag)
            rec.compare(sum_lattice, wavefunction(wf_g, packed, us, p),
                        route="completeness", dual=dual, trial=tag)
    return rec


def check_branching(spec):
    """(N+1)-variable family = sum of skew factor times N-variable family."""
    rec = _Recorder()
    m, n = spec.m, spec.n
    ys = _position_tuples(m, n + 1, _rng(spec, 11))
    for p, us, tag in _points(spec, n + 1):
        us_small, u_new = us[:n], us[n]
        for *_, flavour, fam_kind in _WAVE_KINDS.values():
            for y in ys:
                lhs = family_poly(fam_kind, flavour(m, y), us, p)
                xs = [x for x in combinations(range(1, m + 1), n)
                      if interlaces(y, x)]
                rec.expect(bool(xs), kind=fam_kind, y=y,
                           reason="no interlacing smaller config")
                rhs = None
                for x in xs:
                    term = skew_factor(fam_kind, y, x, u_new, p, m) \
                        * family_poly(fam_kind, flavour(m, x), us_small, p)
                    rhs = term if rhs is None else rhs + term
                rec.compare(lhs, rhs, kind=fam_kind, y=y, trial=tag)
    return rec


def check_degeneration(spec):
    """The first family at t = 0 gives the bialternant form.

    At a = c = d = 1, b = t*beta the family G at t = 0 equals
    `degeneration_rhs`.  Both modes evaluate G at the t = 0 parameter set
    itself (the module docstring says why that is the limit t -> 0): exact
    mode at symbolic u1..un and beta, eval mode at seeded spectral
    parameters and beta, over GF(PRIME) unless `_field` says Q.
    """
    rec = _Recorder()
    m, n = spec.m, spec.n
    positions = _position_tuples(m, n, _rng(spec, 13))
    if spec.mode == "exact":
        vt = canonical_vartable(n_u=n, free_params=(), beta=True)
        points = [([RatFunc(vt.var(f"u{j}")) for j in range(1, n + 1)],
                   RatFunc(vt.var("beta")), "symbolic")]
    else:
        residues = _field(spec) != "Q"
        points = []
        for trial in range(spec.trials):
            rng = _rng(spec, 1000 + trial)
            us = distinct_rationals(rng, n)
            beta = random_rational(rng)
            if residues:
                us, beta = [Residue.of(u) for u in us], Residue.of(beta)
            points.append((us, beta, trial))
    for us, beta, tag in points:
        one, zero = beta ** 0, 0 * beta
        p = ParamSet.unchecked(zero, one, zero, one, one, -one / beta, -one)
        for pos in positions:
            config = ParticleConfig(m, pos)
            rec.compare(family_poly("G", config, us, p),
                        degeneration_rhs(config, us, beta, m),
                        config=pos, trial=tag)
    return rec


def check_mp_algebra(spec):
    """Raising-piece algebra, the operator-word wavefunction, the prefactor.

    Checks the quasi-commutation relations entrywise for every size up to
    N, the operator-word route against the direct lattice wavefunction for
    all configurations at (M, N), and the two prefactor expressions.
    """
    rec = _Recorder()
    m, n = spec.m, spec.n
    for p, us, tag in _points(spec, n):
        t, a, b, e, f = p.t, p.a, p.b, p.e, p.f
        for size in range(1, n + 1):
            sub = us[:size]
            a_mat, c_mat = mp_build(sub, p)
            parts = raising_parts(sub, p)
            total = parts[0]
            for piece in parts[1:]:
                total = mat_add(total, piece)
            rec.expect(mat_eq(total, c_mat), relation="decomposition",
                       size=size, trial=tag)
            for j in range(size):
                uj = sub[j]
                rec.expect(
                    mat_eq(mat_mul(parts[j], a_mat),
                           mat_scale((e * uj + f) / (a * uj + b),
                                     mat_mul(a_mat, parts[j]))),
                    relation="exchange-with-diagonal", size=size, j=j + 1,
                    trial=tag)
                square = mat_mul(parts[j], parts[j])
                rec.expect(all(v == 0 for row in square for v in row),
                           relation="nilpotency", size=size, j=j + 1,
                           trial=tag)
                for k in range(size):
                    if k == j:
                        continue
                    uk = sub[k]
                    ratio = (e * uj + f) * (a * uk + b) * (uj - t * uk) \
                        / ((a * uj + b) * (e * uk + f) * (t * uj - uk))
                    rec.expect(
                        mat_eq(mat_mul(parts[j], parts[k]),
                               mat_scale(ratio, mat_mul(parts[k], parts[j]))),
                        relation="exchange", size=size, j=j + 1, k=k + 1,
                        trial=tag)
        amps = wavefunctions("psi", m, us, p)
        for config in all_particle_configs(m, n):
            rec.compare(trace_wavefunction(config, us, p),
                        amps[config.bits()],
                        relation="operator-word", config=config.x, trial=tag)
        rec.compare(k_prefactor(m, us, p), k_closed_form(m, us, p),
                    relation="prefactor", trial=tag)
    return rec


def check_ik(spec):
    """The four defining properties of the packed-boundary partition function."""
    rec = _Recorder()
    for trial in range(spec.trials if spec.mode == "eval" else 1):
        p = _trial_params(spec, trial)
        report = check_ik_properties(spec.n, p, seed=spec.seed + trial)
        rec.expect(report.degree, property="degree", trial=trial)
        rec.expect(report.symmetric, property="symmetry", trial=trial)
        rec.expect(report.base_case, property="base-case", trial=trial)
        for k, ok in report.recursion.items():
            rec.expect(ok, property="recursion", k=k, trial=trial)
    return rec


def check_exchange(spec):
    """Intertwining relation ("rll") or Yang-Baxter equation ("ybe") at
    seeded random points (or symbolically)."""
    # looked up at call time, so that a rebinding of either name is seen
    relation = check_rll if spec.name == "rll" else check_ybe
    rec = _Recorder()
    for p, us, tag in _points(spec, 2):
        rec.expect(relation(us[0], us[1], p), point=tag)
    return rec


def check_dwbp_triangle(spec):
    """Permutation sum, determinant and lattice brute force all agree."""
    rec = _Recorder()
    n = spec.n
    for p, us, tag in _points(spec, n, n_w=n):
        reference = z_sum(us, p, ws=p.w)
        rec.compare(reference, z_det_inhom(us, p, ws=p.w),
                    route="determinant", trial=tag)
        # the lattice route reads the inhomogeneities from p
        packed = ParticleConfig(n, tuple(range(1, n + 1)))
        rec.compare(reference, wavefunction("psi", packed, us, p),
                    route="lattice", trial=tag)
        rec.compare(z_sum(us, p), z_det_hom(n, us, p),
                    route="homogeneous", trial=tag)
    return rec


_CHECKS = {
    "correspondence": check_correspondence,
    "pairing": check_pairing,
    "branching": check_branching,
    "degeneration": check_degeneration,
    "mp-algebra": check_mp_algebra,
    "ik-properties": check_ik,
    "rll": check_exchange,
    "ybe": check_exchange,
    "dwbp": check_dwbp_triangle,
}

CHECK_NAMES = tuple(_CHECKS)


def run_check(spec):
    """Run one named check and return its report."""
    fn = _CHECKS.get(spec.name)
    if fn is None:
        raise RingError(f"unknown check {spec.name!r}")
    start = time.perf_counter()
    rec = fn(spec)
    ms = (time.perf_counter() - start) * 1000
    # a check that compared nothing has shown nothing
    return CheckReport(spec.name, rec.passed and rec.count > 0,
                       breakdown={"comparisons": rec.count,
                                  "mode": spec.mode,
                                  "field": _field(spec)},
                       witness=rec.witness if rec.count else
                       {"reason": "no comparisons made"}, ms=ms)


def run_checks(specs, threads=None):
    """Run checks one after another; reports come back in the order requested.

    `threads` is accepted and ignored, for callers that still pass it.
    """
    return [run_check(s) for s in specs]


def default_suite(m=4, n=2, mode="eval", seed=0, trials=5, params=None):
    """One spec per named check, at sizes scaled to stay desk-fast."""
    def spec(name, **kw):
        base = dict(m=m, n=n, mode=mode, seed=seed, trials=trials,
                    params=params)
        base.update(kw)
        return CheckSpec(name, **base)

    return [
        spec("correspondence"),
        spec("pairing"),
        spec("branching", n=max(1, n - 1)),
        spec("degeneration"),
        spec("mp-algebra"),
        spec("ik-properties", n=max(2, n)),
        spec("dwbp", n=max(2, n)),
        spec("rll"),
        spec("ybe"),
    ]


def reports_to_jsonl(reports):
    return "\n".join(r.to_json() for r in reports)
