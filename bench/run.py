"""vertexpoly benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload exact-suite --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from `src/`.  With
`--trace 0` the workload runs whole passes until `--seconds` is spent, to
the nearest pass (at least one), and the end-to-end metrics are printed.
With `--trace 1` one untraced serial pass is followed by one traced serial
pass and the per-layer metrics are printed.  Outputs are always checked.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A result file with an environment block goes to `bench/out/`; a traced run
also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from math import exp, lgamma, log, log1p
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Set-up is timed SETUP_AT_START times before the first pass and once after
# every pass, and at least SETUP_SAMPLES times in all, so that its median
# spans the run rather than one moment of it.
SETUP_AT_START = 5
SETUP_SAMPLES = 10

# One set-up sample, run in a new interpreter so that it pays for every
# module the library imports, as a user's first call does.  The clock
# stops while the harness's own module loads.
_SETUP_SAMPLE = """
import sys, time
start = time.perf_counter()
src, bench, name, seed, kwargs = sys.argv[1:]
sys.path[:0] = [src]
import vertexpoly
paused = time.perf_counter()
sys.path[:0] = [bench]
import json
from workloads import WORKLOADS
resumed = time.perf_counter()
WORKLOADS[name](vertexpoly, int(seed), **json.loads(kwargs)).inputs(0)
print((paused - start) + (time.perf_counter() - resumed))
"""

CHECKS = ("correspondence", "pairing", "branching", "degeneration",
          "mp-algebra", "ik-properties", "rll", "ybe", "dwbp")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "req_p50_ms": "ms", "req_p90_ms": "ms", "req_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "ring.trial_div.calls": "count",
    "ring.trial_div.hit_ratio": "ratio",
    "ring.trial_div.self_s": "s",
    "ring.trial_div.miss_self_s": "s",
    "ring.mul.calls": "count",
    "ring.mul.self_s": "s",
    "ring.mul.peak_terms": "count",
    "ring.add.self_s": "s",
    "ring.ratfunc_norm.calls": "count",
    "ring.ratfunc_norm.self_s": "s",
    "ring.ratfunc_eq.self_s": "s",
    "ring.det.calls": "count",
    "ring.det.self_s": "s",
    "ring.render.self_s": "s",
    "lattice.row_op.calls": "count",
    "lattice.row_op.self_s": "s",
    "lattice.wavefunction.calls": "count",
    "lattice.exchange.self_s": "s",
    "sympoly.family.calls": "count",
    "sympoly.family.self_s": "s",
    "sympoly.skew.self_s": "s",
    "sympoly.grothendieck.self_s": "s",
    "dwbp.z_det_hom.self_s": "s",
    "dwbp.z_det_inhom.self_s": "s",
    "dwbp.z_sum.self_s": "s",
    "dwbp.ik.self_s": "s",
    "mprod.build.self_s": "s",
    "mprod.raising.self_s": "s",
    "mprod.trace.self_s": "s",
    "params.construct.self_s": "s",
    **{f"verify.{c}.s": "s" for c in CHECKS},
    "verify.comparisons": "count",
    "verify.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no library source)."""


# -- set-up --------------------------------------------------------------


def _import_vertexpoly():
    if not (SRC / "vertexpoly" / "__init__.py").is_file():
        raise SetupError(f"no vertexpoly sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import vertexpoly
    if Path(vertexpoly.__file__).resolve().parent != SRC / "vertexpoly":
        raise SetupError(f"vertexpoly imported from {vertexpoly.__file__}, "
                         f"not from {SRC}")
    return vertexpoly


def _setup_once(name, seed, workload_kwargs):
    """Import the library and build pass 0's inputs in this process."""
    vp = _import_vertexpoly()
    workload = WORKLOADS[name](vp, seed, **workload_kwargs)
    return vp, workload, workload.inputs(0)


def _setup_time(name, seed, workload_kwargs):
    """Seconds to import the library and build pass 0's inputs, measured
    in a new interpreter (see `_SETUP_SAMPLE`)."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_SAMPLE, str(SRC), str(BENCH_DIR),
         name, str(seed), json.dumps(workload_kwargs)],
        capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise SetupError(f"set-up sample failed: {done.stderr.strip()}")
    return float(done.stdout)


# -- environment ---------------------------------------------------------


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(vp, threads_env):
    uname = os.uname()
    return {
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "backend": vp.QQ.__module__.split(".")[0],
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "VERTEXPOLY_THREADS": threads_env,  # as found; unset for the run
        "git_commit": _git_commit(),
        "machine": uname.machine,
        "kernel": uname.release,
    }


# -- metrics -------------------------------------------------------------


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile of `values`.

    It is a mean of all order statistics weighted by the Beta((n+1)p,
    (n+1)(1-p)) density over each one's rank interval, so it does not jump
    when host noise reorders the few readings around a single rank.  The
    density is integrated by the midpoint rule.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)
    weights = [0.0] * n
    steps = 20000
    for j in range(steps):
        t = (j + 0.5) / steps
        weights[int(t * n)] += exp((a - 1) * log(t) + (b - 1) * log1p(-t)
                                   - log_beta)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(setup_samples, walls, latencies):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "wall_s": (statistics.median(walls), len(walls)),
        "peak_rss_mb": (rss_mb, 1),
        "req_p50_ms": (hd_quantile(latencies, 0.5), len(latencies)),
        "req_p90_ms": (hd_quantile(latencies, 0.9), len(latencies)),
        "req_per_s": (len(latencies) / sum(walls), len(latencies)),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": n}
            for k, (v, n) in values.items()}


def per_layer(tracer, comparisons, overhead_ratio):
    """Per-layer metrics from the spans of one traced pass."""
    dur, own = tracer.self_times()
    index = {name: i for i, name in enumerate(tracer.names)}
    n = len(index)
    calls, self_s, total_s, peak = [0] * n, [0.0] * n, [0.0] * n, [0] * n
    trial_div = index.get("ring.trial_div")
    hits, miss_self_s = 0, 0.0
    for i, lid in enumerate(tracer.name_id):
        calls[lid] += 1
        self_s[lid] += own[i]
        total_s[lid] += dur[i]
        peak[lid] = max(peak[lid], tracer.value[i])
        if lid == trial_div:
            if tracer.value[i]:
                hits += 1
            else:
                miss_self_s += own[i]

    def of(column, layer):
        return column[index[layer]] if layer in index else 0

    td_calls = of(calls, "ring.trial_div")
    values = {
        "ring.trial_div.hit_ratio": hits / td_calls if td_calls else 0.0,
        "ring.trial_div.miss_self_s": miss_self_s,
        "ring.mul.peak_terms": of(peak, "ring.mul"),
        "verify.comparisons": comparisons,
        "verify.self_s": sum(self_s[i] for name, i in index.items()
                             if name.startswith("verify.")),
        "trace.overhead_ratio": overhead_ratio,
    }
    column = {"calls": calls, "self_s": self_s, "s": total_s}
    for key in PER_LAYER_UNITS:
        if key not in values:
            layer, _, what = key.rpartition(".")
            values[key] = of(column[what], layer)
    return {k: {"value": values[k], "unit": PER_LAYER_UNITS[k]}
            for k in PER_LAYER_UNITS}


# -- the run -------------------------------------------------------------


def run_benchmark(name, seed, seconds, trace, workload_kwargs=None):
    """Run one workload; return the result record (metrics and checks)."""
    kwargs = workload_kwargs or {}
    threads_env = os.environ.pop("VERTEXPOLY_THREADS", None)
    try:
        vp, workload, inputs = _setup_once(name, seed, kwargs)
        env = environment(vp, threads_env)
        attempted, failures, walls, latencies = 0, [], [], []
        class_ms = {}
        if not trace:
            samples = [_setup_time(name, seed, kwargs)
                       for _ in range(SETUP_AT_START)]
            # outputs are dropped once checked, so memory does not grow
            # with the number of passes
            while True:
                gc.collect()  # every pass starts from a collected heap
                outcome = workload.run(inputs)
                attempted += len(inputs)
                failures += workload.check(inputs, outcome)
                walls.append(outcome.wall_s)
                latencies += outcome.latencies_ms
                for cls, ms in outcome.class_ms.items():
                    class_ms[cls] = class_ms.get(cls, 0.0) + ms
                samples.append(_setup_time(name, seed, kwargs))
                # end at the whole number of passes nearest to --seconds
                if seconds - sum(walls) < outcome.wall_s / 2:
                    break
                inputs = workload.inputs(len(walls))
            while len(samples) < SETUP_SAMPLES:
                samples.append(_setup_time(name, seed, kwargs))
            metrics = end_to_end(samples, walls, latencies)
            tracer = None
        else:
            plain = workload.run(inputs, threads=1)
            attempted += len(inputs)
            failures += workload.check(inputs, plain)
            tracer = Tracer()
            with tracer:
                with tracer.span("setup"):
                    workload = WORKLOADS[name](vp, seed, **kwargs)
                    inputs = workload.inputs(0)
                with tracer.span("pass"):
                    traced = workload.run(inputs, threads=1)
            attempted += len(inputs)
            failures += workload.check(inputs, traced)
            walls = [plain.wall_s, traced.wall_s]
            metrics = per_layer(tracer, workload.comparisons(traced),
                                traced.wall_s / plain.wall_s)
    finally:
        if threads_env is not None:
            os.environ["VERTEXPOLY_THREADS"] = threads_env
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "failures": [str(f) for f in failures[:20]],
        "pass_wall_s": walls,
        "latencies_ms": latencies,
        # each request class's share of the time spent in requests
        "class_share": {cls: ms / sum(class_ms.values())
                        for cls, ms in class_ms.items()},
        "metrics": metrics,
    }, tracer


def _write_outputs(result, tracer):
    OUT.mkdir(exist_ok=True)
    tag = f"{result['workload']}_seed{result['seed']}" \
          f"{'_trace' if result['trace'] else ''}"
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(result, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"spans_{tag}.json.gz")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, tracer = run_benchmark(args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_outputs(result, tracer)
    for key, m in result["metrics"].items():
        samples = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{key:32s} {m['value']:.6g} {m['unit']}{samples}")
    for cls, share in result["class_share"].items():
        print(f"{'share ' + cls:32s} {share:.3f} of request time")
    print(f"{'fail_ratio':32s} {result['failed']}/{result['attempted']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
