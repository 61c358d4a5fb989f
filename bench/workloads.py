"""The benchmark's workloads, driven through vertexpoly's public API.

A workload builds the inputs of pass k from its seed (`inputs`), runs one
timed pass over them (`run`) and checks the outputs outside the timed
region (`check`).  Every library call goes through the package namespace
(`vp.name`), so the tracer's rebinding of that namespace sees it.

- `exact-suite`: `run_checks(default_suite(m=4, n=2, mode="exact"))` with
  the default thread pool, as `vertexpoly verify all --mode exact` runs it.
- `eval-suite`: the same call with mode="eval", m=5, n=2, trials=5, one
  pass per derived seed.
- `compute-mix`: one closed-loop client sending a fixed mix of single
  quantity requests (`PASS_MIX`, equal counts per request class); each
  request is a library call plus rendering the result the way the CLI
  does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations, product
from time import perf_counter


@dataclass
class Outcome:
    """One pass: its wall time, per-request latencies and raw outputs."""

    wall_s: float
    latencies_ms: list
    outputs: list
    error: str = None
    class_ms: dict = field(default_factory=dict)  # request class -> time


@dataclass
class Request:
    """A single-quantity request and the second route that checks it."""

    label: str
    kind: str             # a request kind of CLASSES
    call: object          # () -> value, the timed library call
    fmt: str              # "json" or "text", as `vertexpoly compute --format`
    observe: object       # value -> compared value; None for the value itself
    expect: object        # () -> the second route's value, run untimed
    expected: tuple = None  # (expect(),) once computed


@dataclass
class Failure:
    label: str
    reason: str

    def __str__(self):
        return f"{self.label}: {self.reason}"


def _pass_seed(seed, k):
    return seed * 1000 + k


def _spread(choices, slot, count):
    """The slot-th of count evenly spaced picks from choices."""
    return choices[slot * len(choices) // count]


class Suite:
    """`verify all` in one mode; a pass is one `run_checks` call."""

    def __init__(self, vp, seed, mode, m, n, trials=5):
        self.vp, self.seed = vp, seed
        self.mode, self.m, self.n, self.trials = mode, m, n, trials

    def inputs(self, k):
        return self.vp.default_suite(m=self.m, n=self.n, mode=self.mode,
                                     seed=_pass_seed(self.seed, k),
                                     trials=self.trials)

    def run(self, specs, threads=None):
        """One `verify all` call; it is also the pass's only request."""
        start = perf_counter()
        try:
            reports = self.vp.run_checks(specs, threads=threads)
            error = None
        except Exception as exc:  # noqa: BLE001 - counted as failed checks
            reports, error = [], f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        return Outcome(wall, [wall * 1000], reports, error)

    def check(self, specs, outcome):
        """A check fails if it raised, did not pass, or compared nothing."""
        if outcome.error is not None:
            return [Failure(s.name, outcome.error) for s in specs]
        failures = []
        for report in outcome.outputs:
            if not report.passed:
                failures.append(Failure(report.name,
                                        f"failed: {report.witness}"))
            elif report.breakdown.get("comparisons", 0) == 0:
                failures.append(Failure(report.name, "made no comparisons"))
        return failures

    def comparisons(self, outcome):
        return sum(r.breakdown.get("comparisons", 0) for r in outcome.outputs)


def exact_suite(vp, seed, m=4, n=2):
    return Suite(vp, seed, "exact", m, n)


def eval_suite(vp, seed, m=5, n=2, trials=5):
    return Suite(vp, seed, "eval", m, n, trials)


# -- compute-mix ---------------------------------------------------------

# The five request classes of compute-mix, each a list of (request kind,
# sizes (M, N)).  The weights follow one rule rather than a guess at real
# traffic: a pass sends PER_CLASS requests of every class, split equally
# over its kinds and then over each kind's sizes.  PER_CLASS = 24 is the
# least count that every class splits evenly, and gives 120 requests a pass.
# Sizes stop short of the cliffs listed in NOTES.md.
CLASSES = {
    "symbolic-family": (
        ("family-sym", ((4, 2), (5, 2), (6, 2))),
        ("wavefunction-sym", ((4, 2), (5, 2), (6, 2)))),
    "symbolic-z": (
        ("z-det-hom-sym", ((0, 1), (0, 2), (0, 3))),
        ("z-det-inhom-sym", ((0, 1), (0, 2)))),
    "symbolic-skew": (
        ("skew-sym", ((5, 2), (6, 2), (7, 3), (8, 3))),
        ("grothendieck-sym", ((0, 2), (0, 3)))),
    "numeric-family": (
        ("wavefunction-num", ((6, 2), (8, 3), (10, 3), (10, 4))),
        ("family-num", ((6, 2), (8, 3), (10, 3), (10, 4)))),
    "numeric-trace": (
        ("trace-num", ((6, 2), (8, 3), (8, 4))),),
}
PER_CLASS = 24

CLASS_OF = {kind: cls for cls, kinds in CLASSES.items() for kind, _ in kinds}


def _pass_mix():
    """One pass as (request kind, M, N, count) rows, by the rule above.

    Within a row the slot fixes the variant and configuration (evenly
    spread over all of them), so runs with different seeds cost the same;
    the seed draws the numeric parameter values, the check points and the
    output formats, and every pass sends the run's requests in an order of
    its own.
    """
    rows = []
    for kinds in CLASSES.values():
        per_kind = PER_CLASS // len(kinds)
        for kind, sizes in kinds:
            assert per_kind % len(sizes) == 0, kind
            rows += [(kind, m, n, per_kind // len(sizes)) for m, n in sizes]
    return tuple(rows)


PASS_MIX = _pass_mix()

_FAMILY_OF = {"psi": "G", "psi_dual": "Gbar", "phi": "H", "phi_dual": "Hbar"}
_WAVE_OF = {v: k for k, v in _FAMILY_OF.items()}
_FAMILIES = ("G", "Gbar", "H", "Hbar")
# skew kind -> (row operator, hole configurations, bra is the smaller one)
_SKEW_ELEMENT = {"G": ("B", False, False), "Gbar": ("C", False, True),
                 "H": ("B", True, True), "Hbar": ("C", True, False)}


class ComputeMix:
    """A closed loop with one client over a seeded request stream."""

    def __init__(self, vp, seed, mix=PASS_MIX):
        self.vp, self.seed, self.mix = vp, seed, mix
        self._requests = None

    # -- drawing inputs --------------------------------------------------

    def _q(self, rng):
        return self.vp.QQ(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))

    def _distinct(self, rng, n):
        values = []
        while len(values) < n:
            v = self._q(rng)
            if v not in values:
                values.append(v)
        return values

    def _point(self, rng, n_u, n_w=0):
        """Numeric params, u's, w's and the matching evaluation point."""
        p = self.vp.ParamSet.sample(rng.randrange(1 << 30), n_w=n_w)
        us = self._distinct(rng, n_u)
        point = {name: getattr(p, name) for name in "tabcd"}
        point.update({f"u{j}": u for j, u in enumerate(us, 1)})
        point.update({f"w{j}": w for j, w in enumerate(p.w or (), 1)})
        return p, us, point

    def _config(self, kind, m, n, slot, count):
        pos = _spread(list(combinations(range(1, m + 1), n)), slot, count)
        if kind in ("H", "Hbar", "phi", "phi_dual"):
            return self.vp.HoleConfig(m, pos)
        return self.vp.ParticleConfig(m, pos)

    def _lattice_z(self, n, us, p, dual):
        """Packed-boundary partition function by brute-force row operators."""
        vp = self.vp
        if dual:
            s = vp.StateVector.packed(n, p.one())
            for u in us:
                s = vp.apply_row_operator("C", u, s, p)
            return s.amplitude(0, p.zero())
        s = vp.StateVector.vacuum(n, p.one())
        for u in us:
            s = vp.apply_row_operator("B", u, s, p)
        return s.amplitude((1 << n) - 1, p.zero())

    # -- request kinds ---------------------------------------------------
    #
    # Each returns (call, observe, expect): the request, the map from its
    # result to the value compared, and the second route giving that value.
    # A symbolic result is observed at a seeded rational point, where the
    # second route is computed exactly.

    def _family_sym(self, rng, slot, count, m, n):
        vp = self.vp
        kind = _FAMILIES[slot % 4]
        config = self._config(kind, m, n, slot, count)
        p = vp.ParamSet.symbolic_canonical(n_u=n)
        us = p.spectral(n)
        pn, usn, point = self._point(rng, n)
        return (lambda: vp.family_poly(kind, config, us, p),
                lambda v: v.evaluate(point),
                lambda: vp.wavefunction(_WAVE_OF[kind], config, usn, pn))

    def _wavefunction_sym(self, rng, slot, count, m, n):
        vp = self.vp
        kind = _WAVE_OF[_FAMILIES[slot % 4]]
        config = self._config(kind, m, n, slot, count)
        p = vp.ParamSet.symbolic_canonical(n_u=n)
        us = p.spectral(n)
        pn, usn, point = self._point(rng, n)
        return (lambda: vp.wavefunction(kind, config, us, p),
                lambda v: v.evaluate(point),
                lambda: vp.family_poly(_FAMILY_OF[kind], config, usn, pn))

    def _z_det_hom_sym(self, rng, slot, count, m, n):
        vp = self.vp
        dual = slot % 2 == 1
        p = vp.ParamSet.symbolic_over(vp.canonical_vartable(n_u=n))
        us = p.spectral(n)
        pn, usn, point = self._point(rng, n)

        def second_route():
            if dual:
                return self._lattice_z(n, usn, pn, dual=True)
            return vp.z_sum(usn, pn)

        return (lambda: vp.z_det_hom(n, us, p, dual=dual),
                lambda v: v.evaluate(point), second_route)

    def _z_det_inhom_sym(self, rng, slot, count, m, n):
        vp = self.vp
        dual = slot % 2 == 1
        p = vp.ParamSet.symbolic_over(vp.canonical_vartable(n_u=n, n_w=n),
                                      n_w=n)
        us, ws = p.spectral(n), list(p.w)
        pn, usn, point = self._point(rng, n, n_w=n)

        def second_route():
            if dual:
                return self._lattice_z(n, usn, pn, dual=True)
            return vp.z_sum(usn, pn, ws=pn.w)

        return (lambda: vp.z_det_inhom(us, p, ws=ws, dual=dual),
                lambda v: v.evaluate(point), second_route)

    def _skew_sym(self, rng, slot, count, m, n):
        vp = self.vp
        kind = _FAMILIES[slot % 4]
        y, x = _spread([(y, x) for y in combinations(range(1, m + 1), n + 1)
                        for x in combinations(range(1, m + 1), n)
                        if vp.interlaces(y, x)], slot, count)
        p = vp.ParamSet.symbolic_canonical(n_u=1)
        u = p.spectral(1)[0]
        pn, usn, point = self._point(rng, 1)
        op, holes, bra_small = _SKEW_ELEMENT[kind]
        wrap = vp.HoleConfig if holes else vp.ParticleConfig
        big, small = wrap(m, y), wrap(m, x)
        bra, ket = (small, big) if bra_small else (big, small)
        return (lambda: vp.skew_factor(kind, y, x, u, p, m),
                lambda v: v.evaluate(point),
                lambda: vp.matrix_element(op, bra, usn[0], ket, pn))

    def _grothendieck_sym(self, rng, slot, count, m, n):
        """The t -> 0 family-G degeneration is the second route."""
        vp = self.vp
        lam = _spread([lam for lam in product(range(4), repeat=n)
                       if lam[0] and list(lam) == sorted(lam, reverse=True)],
                      slot, count)
        names = ["beta"] + [f"z{j}" for j in range(1, n + 1)]
        vt = vp.VarTable(names)
        beta = vp.RatFunc(vt.var("beta"))
        zs = [vp.RatFunc(vt.var(z)) for z in names[1:]]
        beta_n = self._q(rng)
        usn = self._distinct(rng, n)
        config = vp.young_to_config(lam, lam[0] + n)
        point = {"beta": beta_n}
        point.update({f"z{j}": -1 / beta_n - 1 / u
                      for j, u in enumerate(usn, 1)})
        scale = (-beta_n) ** -(n * (n - 1) // 2)
        for u in usn:
            scale *= u ** config.m
        p0 = vp.ParamSet.unchecked(0, 1, 0, 1, 1, -1 / beta_n, -1)
        return (lambda: vp.grothendieck_det(lam, zs, beta),
                lambda v: v.evaluate(point) * scale,
                lambda: vp.family_poly("G", config, usn, p0))

    def _wavefunction_num(self, rng, slot, count, m, n):
        vp = self.vp
        kind = _WAVE_OF[_FAMILIES[slot % 4]]
        config = self._config(kind, m, n, slot, count)
        p, us, _ = self._point(rng, n)
        return (lambda: vp.wavefunction(kind, config, us, p), None,
                lambda: vp.family_poly(_FAMILY_OF[kind], config, us, p))

    def _family_num(self, rng, slot, count, m, n):
        vp = self.vp
        kind = _FAMILIES[slot % 4]
        config = self._config(kind, m, n, slot, count)
        p, us, _ = self._point(rng, n)
        return (lambda: vp.family_poly(kind, config, us, p), None,
                lambda: vp.wavefunction(_WAVE_OF[kind], config, us, p))

    def _trace_num(self, rng, slot, count, m, n):
        vp = self.vp
        config = self._config("G", m, n, slot, count)
        p, us, _ = self._point(rng, n)
        return (lambda: vp.trace_wavefunction(config, us, p), None,
                lambda: vp.wavefunction("psi", config, us, p))

    _KINDS = {
        "family-sym": _family_sym,
        "wavefunction-sym": _wavefunction_sym,
        "z-det-hom-sym": _z_det_hom_sym,
        "z-det-inhom-sym": _z_det_inhom_sym,
        "skew-sym": _skew_sym,
        "grothendieck-sym": _grothendieck_sym,
        "wavefunction-num": _wavefunction_num,
        "family-num": _family_num,
        "trace-num": _trace_num,
    }

    # -- the workload interface -----------------------------------------

    def inputs(self, k):
        """Pass k: the run's requests (drawn once from the seed) in a
        seeded order of their own."""
        if self._requests is None:
            rng = random.Random(self.seed)
            self._requests = []
            for kind, m, n, count in self.mix:
                for slot in range(count):
                    call, observe, expect = self._KINDS[kind](
                        self, rng, slot, count, m, n)
                    self._requests.append(Request(
                        f"{kind} m={m} n={n} #{slot}", kind, call,
                        rng.choice(("json", "text")), observe, expect))
        requests = list(self._requests)
        random.Random(_pass_seed(self.seed, k)).shuffle(requests)
        return requests

    def _render(self, value, fmt):
        """Serialize as `vertexpoly compute` prints it."""
        if fmt == "text":
            return str(value)
        if isinstance(value, self.vp.RatFunc):
            return json.dumps(self.vp.ratfunc_to_json(value))
        return json.dumps({"value": str(value)})

    def run(self, requests, threads=None):
        latencies, outputs = [], []
        start = perf_counter()
        for req in requests:
            t0 = perf_counter()
            try:
                value = req.call()
                text = self._render(value, req.fmt)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                value, text = None, f"{type(exc).__name__}: {exc}"
            latencies.append((perf_counter() - t0) * 1000)
            outputs.append((value, text))
        wall = perf_counter() - start
        class_ms = dict.fromkeys(CLASSES, 0.0)
        for req, ms in zip(requests, latencies):
            class_ms[CLASS_OF[req.kind]] += ms
        return Outcome(wall, latencies, outputs, class_ms=class_ms)

    def check(self, requests, outcome):
        """Compare each result with its second route, computed once a run."""
        failures = []
        for req, (value, text) in zip(requests, outcome.outputs):
            if value is None:
                failures.append(Failure(req.label, f"raised {text}"))
                continue
            if not text:
                failures.append(Failure(req.label, "empty rendering"))
                continue
            try:
                if req.expected is None:
                    req.expected = (req.expect(),)
                seen = value if req.observe is None else req.observe(value)
            except Exception as exc:  # noqa: BLE001 - a failed check
                failures.append(Failure(req.label, f"check raised {exc!r}"))
                continue
            if seen != req.expected[0]:
                failures.append(Failure(req.label,
                                        "differs from the second route"))
        return failures

    def comparisons(self, outcome):
        return 0


WORKLOADS = {
    "exact-suite": exact_suite,
    "eval-suite": eval_suite,
    "compute-mix": ComputeMix,
}
