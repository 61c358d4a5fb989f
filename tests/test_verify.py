"""Identity harness: check plumbing, reproducibility, fault injection."""

import hashlib
import json

import pytest

from vertexpoly.params import ParamSet
from vertexpoly.ring import PRIME, QQ, RingError
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


# Faults in the routes that parameter injection cannot reach: these checks
# build their own parameters or hold for any e and f.  Each mutant is
# patched where its name is looked up at call time.


@pytest.mark.parametrize("mode", ["exact", "eval"])
def test_shifted_partition_breaks_degeneration(monkeypatch, mode):
    import vertexpoly.sympoly as sp

    config_to_young = sp.config_to_young
    monkeypatch.setattr(sp, "config_to_young",
                        lambda x: tuple(v + 1 for v in config_to_young(x)))
    report = run_check(CheckSpec("degeneration", m=3, n=2, mode=mode,
                                 seed=1, trials=1))
    assert not report.passed and "lhs" in report.witness


def test_scaled_partition_function_breaks_ik_base_case(monkeypatch):
    import vertexpoly.dwbp as dw

    z_sum = dw.z_sum
    monkeypatch.setattr(dw.check_ik_properties, "__defaults__",
                        (lambda us, p, ws=None: 2 * z_sum(us, p, ws=ws),))
    report = run_check(CheckSpec("ik-properties", n=2, mode="eval", seed=1,
                                 trials=1))
    assert not report.passed
    assert report.witness["property"] == "base-case"


@pytest.mark.parametrize("name", ["rll", "ybe"])
@pytest.mark.parametrize("mode", ["exact", "eval"])
def test_wrong_intertwiner_entry_breaks_exchange_checks(monkeypatch, name,
                                                         mode):
    import vertexpoly.lattice as lat

    r_weight = lat.r_weight

    def doubled_01_to_10(alpha, beta, gamma, delta, u, p):
        w = r_weight(alpha, beta, gamma, delta, u, p)
        return 2 * w if (alpha, beta, gamma, delta) == (0, 1, 1, 0) else w

    monkeypatch.setattr(lat, "r_weight", doubled_01_to_10)
    report = run_check(CheckSpec(name, mode=mode, seed=1, trials=1))
    assert not report.passed


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
# shared; the fault-injected runs pin every witness byte as well.  The
# eval-fault bytes were re-pinned when eval mode moved to GF(2^61-1): its
# failing witnesses now print residues, every other byte is unchanged.
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
     "42e0006be8251aacbb3e2de61426d0169039838c2ef040fa0330ad56d7192d61", 1015,
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


def _fault_injected(**kw):
    p = ParamSet.sample(13)
    bad = ParamSet.unchecked(p.t, p.a, p.b, p.c, p.d, p.e, p.f + 1)
    return [run_check(s) for s in default_suite(params=bad, **kw)]


def test_failing_eval_witnesses_print_residues():
    values = [r.witness[side] for r in _fault_injected(m=4, n=2, mode="eval",
                                                       trials=2)
              if not r.passed for side in ("lhs", "rhs") if side in r.witness]
    assert len(values) == 8
    for v in values:
        assert v.isdigit() and int(v) < PRIME, v


_LATTICE_CHECKS = {"correspondence", "pairing", "branching", "mp-algebra",
                   "rll", "ybe", "dwbp"}


@pytest.mark.parametrize("mode", ["exact", "eval"])
def test_report_records_the_scalar_field(mode):
    reports = run_checks(default_suite(m=3, n=1, mode=mode, seed=2,
                                       trials=1))
    assert {r.name for r in reports} == set(CHECK_NAMES)
    for r in reports:
        over_gf = mode == "eval" and r.name in _LATTICE_CHECKS
        assert r.breakdown["field"] == ("GF(2^61-1)" if over_gf else "Q"), \
            r.name
        assert "field" not in json.loads(r.to_json())


def test_params_that_do_not_reduce_mod_p_run_over_q():
    # a = p is a valid rational parameter, but its residue is 0
    params = ParamSet(QQ(1, 2), QQ(PRIME), QQ(5), QQ(7), QQ(11))
    reports = run_checks(default_suite(m=4, n=2, mode="eval", seed=1,
                                       trials=2, params=params))
    assert all(r.passed for r in reports), [r.witness for r in reports]
    assert {r.breakdown["field"] for r in reports} == {"Q"}


@pytest.mark.parametrize("name", ["rll", "correspondence", "dwbp"])
def test_symbolic_params_in_eval_mode_run_over_q(name):
    # a symbolic override has no image in GF(p); its points stay over Q
    report = run_check(CheckSpec(name, m=3, n=2, mode="eval", seed=1,
                                 trials=1,
                                 params=ParamSet.symbolic_canonical(2)))
    assert report.passed, report.witness
    assert report.breakdown["field"] == "Q"


def test_empty_lattice_pairing_runs_over_residues():
    # the 0x0 determinant is the int 1, which a residue can divide
    report = run_check(CheckSpec("pairing", m=0, n=0, mode="eval", trials=1))
    assert report.passed and report.breakdown["field"] == "GF(2^61-1)"


def test_position_tuples_sample_when_there_are_too_many():
    import random

    from vertexpoly.verify import _position_tuples

    # comb(12, 6) = 924 exceeds the 500-tuple limit
    tuples = _position_tuples(12, 6, random.Random(4))
    assert len(tuples) == len(set(tuples)) == 500
    assert all(len(t) == 6 and 1 <= t[0] and t[-1] <= 12
               and all(a < b for a, b in zip(t, t[1:])) for t in tuples)
    assert tuples == sorted(tuples)
    assert _position_tuples(12, 6, random.Random(4)) == tuples
