"""Identity harness: check plumbing, reproducibility, fault injection."""

import hashlib
import json

import pytest

from vertexpoly.params import ParamSet
from vertexpoly.ring import RingError
from vertexpoly.verify import (CHECK_NAMES, CheckSpec, default_suite,
                               reports_to_jsonl, run_check, run_checks)


def test_every_named_check_passes_in_eval_mode():
    for spec in default_suite(m=4, n=2, mode="eval", seed=2, trials=2):
        report = run_check(spec)
        assert report.passed, (report.name, report.witness)


def test_spec_validation():
    with pytest.raises(RingError):
        CheckSpec("correspondence", mode="midway")
    with pytest.raises(RingError):
        CheckSpec("correspondence", mode="eval", trials=0)
    with pytest.raises(RingError):
        run_check(CheckSpec("no-such-check"))


def test_exact_and_eval_verdicts_agree():
    for name in ("correspondence", "branching", "dwbp", "mp-algebra"):
        kw = {"m": 4, "n": 2} if name != "branching" else {"m": 4, "n": 1}
        exact = run_check(CheckSpec(name, mode="exact", **kw))
        evald = run_check(CheckSpec(name, mode="eval", seed=8, trials=2, **kw))
        assert exact.passed and evald.passed


def test_reports_are_reproducible_given_seed():
    spec = CheckSpec("correspondence", m=4, n=2, mode="eval", seed=5, trials=2)
    r1, r2 = run_check(spec), run_check(spec)
    assert (r1.passed, r1.witness, r1.breakdown) == \
        (r2.passed, r2.witness, r2.breakdown)


def test_jsonl_report_shape():
    reports = run_checks([CheckSpec("rll", mode="eval", seed=1, trials=2),
                          CheckSpec("ybe", mode="eval", seed=1, trials=2)])
    lines = reports_to_jsonl(reports).splitlines()
    assert [json.loads(l)["name"] for l in lines] == ["rll", "ybe"]
    for line in lines:
        obj = json.loads(line)
        assert set(obj) == {"name", "pass", "witness", "ms"}
        assert obj["pass"] is True


def test_parallel_and_serial_agree():
    specs = default_suite(m=3, n=1, mode="eval", seed=3, trials=1)
    serial = run_checks(specs, threads=1)
    parallel = run_checks(specs, threads=4)
    assert [(r.name, r.passed) for r in serial] == \
        [(r.name, r.passed) for r in parallel]


def test_fault_injection_breaks_correspondence():
    p = ParamSet.sample(13)
    bad = ParamSet.unchecked(p.t, p.a, p.b, p.c, p.d, p.e, p.f + 1)
    report = run_check(CheckSpec("correspondence", m=4, n=2, mode="eval",
                                 seed=1, trials=1, params=bad))
    assert not report.passed
    assert report.witness is not None
    assert "lhs" in report.witness and "rhs" in report.witness


def test_fault_injection_breaks_rll():
    p = ParamSet.sample(13)
    bad = ParamSet.unchecked(p.t, p.a, p.b, p.c, p.d, p.e, p.f + 1)
    report = run_check(CheckSpec("rll", mode="eval", seed=1, trials=2,
                                 params=bad))
    assert not report.passed


def test_fault_injection_breaks_dwbp_in_both_modes():
    p = ParamSet.sample(13)
    bad = ParamSet.unchecked(p.t, p.a, p.b, p.c, p.d, p.e, p.f + 1)
    for mode in ("exact", "eval"):
        report = run_check(CheckSpec("dwbp", n=2, mode=mode, seed=1,
                                     trials=1, params=bad))
        assert not report.passed, mode


def test_check_names_cover_the_registry():
    assert set(CHECK_NAMES) >= {"correspondence", "pairing", "branching",
                                "degeneration", "mp-algebra", "ik-properties",
                                "rll", "ybe"}


def test_check_that_compares_nothing_fails(monkeypatch):
    import vertexpoly.verify as vf

    monkeypatch.setitem(vf._CHECKS, "rll", lambda spec: vf._Recorder())
    report = run_check(CheckSpec("rll", mode="eval", trials=1))
    assert not report.passed
    assert report.breakdown["comparisons"] == 0
    assert report.witness == {"reason": "no comparisons made"}


# sha256 and length of the default suite's JSONL (every ms set to 0) and
# the per-check comparison counts, captured before the lattice sweeps were
# shared; the fault-injected runs pin every witness byte as well
SUITE_PINS = [
    (dict(m=3, n=2, mode="exact"), False,
     "5bb27a6e7779c7913c79624d785cf845d9fd99c486d0007cb077f1221196085c", 551,
     [12, 4, 24, 3, 14, 5, 3, 1, 1]),
    (dict(m=3, n=2, mode="exact"), True,
     "6be09d035e57367c771df4c808caa921b6158a9b9c116325dc98e13c654c69cb",
     19251, [12, 4, 24, 3, 14, 5, 3, 1, 1]),
    (dict(m=4, n=2, mode="eval", trials=2), False,
     "5bb27a6e7779c7913c79624d785cf845d9fd99c486d0007cb077f1221196085c", 551,
     [48, 8, 96, 12, 34, 10, 6, 2, 2]),
    (dict(m=4, n=2, mode="eval", trials=2), True,
     "7af768655a1f5cad333740d625d53b6e747f30980ed4817d7c7db128edad650d", 3826,
     [48, 8, 96, 12, 34, 10, 6, 2, 2]),
]


@pytest.mark.parametrize("kw, faulty, sha256, size, counts", SUITE_PINS,
                         ids=[f"{k['mode']}-{'fault' if f else 'clean'}"
                              for k, f, *_ in SUITE_PINS])
def test_default_suite_output_is_pinned(kw, faulty, sha256, size, counts):
    params = None
    if faulty:
        p = ParamSet.sample(13)
        params = ParamSet.unchecked(p.t, p.a, p.b, p.c, p.d, p.e, p.f + 1)
    reports = [run_check(s) for s in default_suite(params=params, **kw)]
    assert [r.breakdown["comparisons"] for r in reports] == counts
    for r in reports:
        r.ms = 0
    data = reports_to_jsonl(reports).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)
