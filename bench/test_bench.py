"""Fast checks of the benchmark harness itself, on shrunken workloads."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# each workload at a size that runs in well under a second
TINY = {
    "exact-suite": {"m": 2, "n": 1},
    "eval-suite": {"m": 3, "n": 1, "trials": 1},
    "compute-mix": {"mix": (
        ("family-sym", 3, 1, 2), ("wavefunction-sym", 3, 1, 2),
        ("z-det-hom-sym", 0, 1, 2), ("z-det-inhom-sym", 0, 1, 2),
        ("skew-sym", 4, 1, 4), ("grothendieck-sym", 0, 2, 1),
        ("wavefunction-num", 4, 2, 4), ("family-num", 4, 2, 4),
        ("trace-num", 4, 2, 1))},
}

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def result(workload, trace):
    """One shrunken run of one pass."""
    return run.run_benchmark(workload, 7, 0.0, trace, TINY[workload])[0]


def check_names(res, section):
    assert res["correct"], res["failures"]
    assert res["attempted"] >= 1
    listed = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {k: m["unit"] for k, m in res["metrics"].items()}
    assert printed == listed


def test_workload_and_check_names_match():
    run._import_vertexpoly()
    from vertexpoly.verify import CHECK_NAMES

    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)
    assert sorted(run.CHECKS) == sorted(CHECK_NAMES)


def test_end_to_end_metrics_match_benchmark_json():
    # one function builds them for every workload
    res = result("compute-mix", False)
    check_names(res, "end_to_end")
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_and_names_match(workload):
    first, second = result(workload, True), result(workload, True)
    check_names(first, "per_layer")
    counts = [k for k in first["metrics"]
              if k.endswith((".calls", ".hit_ratio", ".peak_terms"))
              or k == "verify.comparisons"]
    assert counts
    for k in counts:
        assert first["metrics"][k]["value"] == second["metrics"][k]["value"], k


def test_tracer_restores_every_binding():
    import vertexpoly
    from vertexpoly import dwbp, params, ring

    def bindings():
        return (ring.try_exact_divide, vertexpoly.determinant,
                vars(ring.MultiPoly)["__mul__"],
                vars(ring.MultiPoly)["__rmul__"],
                vars(params.ParamSet)["sample"],
                dwbp.check_ik_properties.__defaults__)

    before = bindings()
    with Tracer():
        assert ring.MultiPoly.__mul__ is ring.MultiPoly.__rmul__
        assert ring.try_exact_divide is not before[0]
        assert dwbp.check_ik_properties.__wrapped__.__defaults__[0] \
            is dwbp.z_sum
    assert all(a is b for a, b in zip(before, bindings()))
    # also catches a bad restore by an earlier traced run in this process
    assert isinstance(vars(params.ParamSet)["sample"], classmethod)


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    for name, parent, start, end in [("a", -1, 0.0, 10.0),
                                     ("b", 0, 1.0, 4.0),
                                     ("c", 1, 2.0, 3.0),
                                     ("b", 0, 5.0, 6.0)]:
        tracer.name_id.append(tracer._id(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.value.append(0)
    dur, own = tracer.self_times()
    assert list(dur) == [10.0, 3.0, 1.0, 1.0]
    assert list(own) == [6.0, 2.0, 1.0, 1.0]


def test_hd_quantile():
    assert run.hd_quantile([4.0], 0.9) == 4.0
    assert run.hd_quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    # on many readings it agrees with the sample quantile
    xs = [float(i) for i in range(1, 1001)]
    assert run.hd_quantile(xs, 0.9) == pytest.approx(900.5, rel=1e-3)
