"""Command-line interface: output, exit codes, reproducibility."""

import hashlib
import json
import re

import pytest

from vertexpoly.cli import _numeric_spectral, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_wavefunction_symbolic_text(capsys):
    code, out, err = run(capsys, "compute", "wavefunction", "--m", "3",
                         "--x", "1,3", "--symbolic")
    assert code == 0 and err == ""
    assert "u1" in out and "u2" in out and "t" in out


def test_compute_family_equals_wavefunction_numeric(capsys):
    common = ["--m", "4", "--seed", "3"]
    code1, out1, _ = run(capsys, "compute", "wavefunction", "--x", "2,4",
                         "--kind", "psi", *common)
    code2, out2, _ = run(capsys, "compute", "family", "--x", "2,4",
                         "--kind", "G", *common)
    assert code1 == code2 == 0
    assert out1 == out2


def test_compute_json_format_is_parseable(capsys):
    code, out, _ = run(capsys, "compute", "dwbp-sum", "--n", "1",
                       "--symbolic", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert "num" in obj and "den" in obj


def test_compute_dwbp_det_variants_agree_with_sum(capsys):
    _, want, _ = run(capsys, "compute", "dwbp-sum", "--n", "2", "--seed", "5")
    code, got, _ = run(capsys, "compute", "dwbp-det", "--n", "2", "--seed",
                       "5", "--kind", "hom")
    assert code == 0 and got == want


def test_compute_skew_worked_value(capsys):
    code, out, _ = run(capsys, "compute", "skew", "--m", "5", "--x", "1,3,5",
                       "--xbar", "2,4", "--symbolic")
    assert code == 0 and "u1" in out


def test_compute_grothendieck_single_row(capsys):
    code, out, _ = run(capsys, "compute", "grothendieck", "--x", "3",
                       "--symbolic")
    assert code == 0
    assert out.strip() == "z1^3"


def test_out_of_range_config_is_usage_error(capsys):
    code, out, err = run(capsys, "compute", "wavefunction", "--m", "3",
                         "--x", "1,7")
    assert code == 2 and out == "" and "error" in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "compute", "dwbp-sum")
    assert code == 2 and "--n" in err


_PARAMS = {"t": "1/2", "a": "2", "b": "3", "c": "4", "d": "5"}


@pytest.mark.parametrize("text, message", [
    (json.dumps(dict(_PARAMS, t="1")),
     "invalid parameters: t = 1 is excluded"),
    (json.dumps(dict(_PARAMS, t="0")),
     "invalid parameters: parameter t must be nonzero"),
    (json.dumps(dict(_PARAMS, a="0")),
     "invalid parameters: parameters a and b must be nonzero"),
    (json.dumps(dict(_PARAMS, b="0")),
     "invalid parameters: parameters a and b must be nonzero"),
    (json.dumps(dict(_PARAMS, c="0")),
     "invalid parameters: parameter c must be nonzero"),
    (json.dumps(dict(_PARAMS, d="0")),
     "invalid parameters: parameter d must be nonzero"),
    (None, "cannot read parameter file: [Errno 2] No such file or "
           "directory: {path!r}"),
    ('{"t": 1/2', "cannot read parameter file: Expecting ',' delimiter: "
                  "line 1 column 8 (char 7)"),
    (json.dumps({k: v for k, v in _PARAMS.items() if k != "d"}),
     "parameter file must have exactly the keys ('t', 'a', 'b', 'c', 'd')"),
    (json.dumps(dict(_PARAMS, a="two")),
     "parameter a is not a rational p/q string"),
], ids=["t=1", "t=0", "a=0", "b=0", "c=0", "d=0", "missing-file",
        "invalid-json", "wrong-keys", "not-rational"])
def test_parameter_file_errors_are_usage_errors(tmp_path, capsys, text,
                                                message):
    path = tmp_path / "params.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run(capsys, "compute", "wavefunction", "--m", "3",
                         "--x", "1,2", "--params", str(path))
    assert (code, out) == (2, "")
    assert err == "error: " + message.format(path=str(path)) + "\n"


def test_coincident_values_in_params_still_computable(capsys):
    # sanity: a plain numeric run succeeds end to end
    code, out, _ = run(capsys, "compute", "family", "--m", "5", "--x", "2,5")
    assert code == 0 and re.fullmatch(r"-?\d+(/\d+)?\n", out)


def test_sample_params_round_trips_into_compute(tmp_path, capsys):
    code, out, _ = run(capsys, "sample-params", "--seed", "11")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"t", "a", "b", "c", "d"}
    path = tmp_path / "params.json"
    path.write_text(out)
    code, out2, _ = run(capsys, "compute", "wavefunction", "--m", "3",
                        "--x", "1,3", "--params", str(path))
    assert code == 0 and out2.strip()


def test_verify_pass_exit_zero_and_jsonl(capsys):
    code, out, _ = run(capsys, "verify", "rll", "--trials", "2")
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["name"] == "rll" and obj["pass"] is True


def test_verify_all_eval_passes(capsys):
    code, out, _ = run(capsys, "verify", "all", "--m", "3", "--n", "1",
                       "--trials", "1")
    assert code == 0
    names = [json.loads(line)["name"] for line in out.splitlines()]
    assert "correspondence" in names and "pairing" in names


def test_verify_eval_with_params_that_do_not_reduce_mod_p(tmp_path, capsys):
    # a = 2^61 - 1 is a valid parameter whose residue mod 2^61 - 1 is 0;
    # eval mode keeps such a spec over Q and gives its verdicts over Q
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"t": "1/2", "a": str(2 ** 61 - 1), "b": "5",
                                "c": "7", "d": "11"}))
    code, out, err = run(capsys, "verify", "all", "--mode", "eval", "--m",
                         "4", "--n", "2", "--trials", "2", "--params",
                         str(path))
    assert code == 0, err
    reports = [json.loads(line) for line in out.splitlines()]
    assert len(reports) == 9 and all(r["pass"] for r in reports)


def test_verify_failure_exit_three(monkeypatch, capsys):
    import vertexpoly.verify as vf

    def always_fails(spec):
        rec = vf._Recorder()
        rec.compare(1, 2, note="forced mismatch")
        return rec

    monkeypatch.setitem(vf._CHECKS, "rll", always_fails)
    code, out, _ = run(capsys, "verify", "rll")
    assert code == 3
    assert json.loads(out.strip())["pass"] is False


def test_non_integer_thread_count_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("VERTEXPOLY_THREADS", "abc")
    code, out, err = run(capsys, "verify", "rll")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "VERTEXPOLY_THREADS" in err


def test_vanishing_inversion_denominator_is_computation_error(tmp_path,
                                                            capsys):
    # t = u2/u1 at the spectral draws of seed 0 makes the permutation
    # sum's inversion denominator t*u1 - u2 vanish
    u1, u2 = _numeric_spectral(0, 2)
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"t": str(u2 / u1), "a": "1", "b": "2",
                                "c": "3", "d": "5"}))
    code, out, err = run(capsys, "compute", "dwbp-sum", "--n", "2",
                         "--seed", "0", "--params", str(path))
    assert code == 1 and out == "" and err.startswith("error: ")


def test_identical_invocations_byte_identical_modulo_timing(capsys):
    argv = ("verify", "correspondence", "--m", "4", "--n", "2",
            "--trials", "2", "--seed", "9")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    strip_ms = lambda s: re.sub(r'"ms": [0-9.]+', '"ms": 0', s)
    assert strip_ms(out1) == strip_ms(out2)


def test_compute_output_reproducible(capsys):
    argv = ("compute", "family", "--m", "4", "--x", "1,4", "--symbolic")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_unknown_kind_is_usage_error(capsys):
    code, _, err = run(capsys, "compute", "family", "--m", "4", "--x", "1,2",
                       "--kind", "Q")
    assert code == 2 and "kind" in err


# sha256 and byte length of stdout, pinned so that a change to term order
# or coefficient rendering shows up across versions, not just across runs
GOLDEN = [
    ("compute family --kind G --m 4 --x 2,4 --symbolic",
     "809878080d54127c8621bcbcee70db0b5ce5aa0f6a6bcbd79c3c9dc052605367", 2192),
    ("compute family --kind Hbar --m 5 --xbar 2,4 --symbolic --format json",
     "898c7c3bb465b1a716f69846eed3459e6059093ed950e49f31b96844c9a6ec23", 6354),
    ("compute family --kind H --m 5 --xbar 1,4 --symbolic",
     "c9620cb16110820d6ede6d005ec0a092903e01347505ddcf13c33279ed4bc345", 4152),
    ("compute family --kind G --m 6 --x 2,5 --symbolic --format json",
     "3d5357884526cd061e8675628442903911af6224a07312171062ce4a2d0405b2",
     10902),
    ("compute family --kind H --m 5 --xbar 1,3,5 --symbolic",
     "f442d68a7c630d2f03a1985fca26689843e8015db8b3582399a3fd09d7f383c0",
     36614),
    ("compute dwbp-det --kind hom --n 3 --symbolic",
     "5441d0b83b057d3561cc7f9cd4bbae8475259eab595242035a664a87b1d8307e", 5050),
    ("compute dwbp-det --kind dual-inhom --n 2 --symbolic",
     "423970bc9e076adaefac3fc9de0e214d568798515111d31fcdc35717c21700c1", 541),
    ("compute skew --m 5 --x 1,3,5 --xbar 2,4 --symbolic",
     "513377aac1c653568a92a581425f94bf95ed3e4d1144f50f45224080de78de73", 117),
    ("compute grothendieck --x 3,1 --symbolic",
     "2c306df0a7ccd3f995a88098f879dbca82178dbfb7749230e908060bd8d7052d", 64),
    ("compute wavefunction --m 5 --x 1,3,5 --seed 7 --format json",
     "fde08cde8ffce317c58faf7b7d0071260002b05ceb650384a39330bfa9fe49c0", 658),
    ("compute family --kind G --m 6 --x 1,3,6 --seed 4",
     "cc6a64f8ed2b5ff4d50982898149d4233947089e0c2a3272c8bd0661802abb32", 801),
    ("compute family --kind Gbar --m 6 --x 1,3,6 --seed 4",
     "c519c56f9d19ff892b687d9371f7c9fab2861c87400944c38934a30a10de8aad", 817),
    ("compute family --kind H --m 6 --xbar 1,3,6 --seed 4",
     "275a1e21e62f01d827a8834378799af21b647328d1cc8e7480087e38540b47fc", 854),
    ("compute family --kind Hbar --m 6 --xbar 1,3,6 --seed 4",
     "6276727c8537c9759119fe2cdf7bff0f5f1b11c54ce78b7bbfaf307fbc362d36", 843),
    ("compute dwbp-det --kind inhom --n 3 --seed 3",
     "aaae12d357222069355263cf6ca5f3983b1c2a9ac21ad4f2ce5b90ba3aa0e545", 430),
    ("compute dwbp-det --kind hom --n 4 --seed 2",
     "5d561f700c246bffa1334d696ee834cd241ae948152396e07d43480b2d3089dc", 633),
    ("compute dwbp-det --kind dual-hom --n 4 --seed 9",
     "8503a96bc5bf88c1a3484e03793f9831bdf37ae45272b0f3ecf1b010a4164c9b", 641),
    ("compute dwbp-det --kind dual-inhom --n 4 --seed 6 --format json",
     "194ae8dff6db28e78122e576b2f545bfa1be55c229dc6de80990a1f1819a13a3", 864),
    ("compute dwbp-det --kind inhom --n 2 --symbolic",
     "cf7ddb054af7c02c8e3add05e2701b665e7e05062a2a2bdbe5a2e158f37d36bd", 541),
    ("compute wavefunction --kind psi --m 8 --x 2,5,7 --seed 3",
     "25cfe8fb63a462da360a73c5c5a76ca3f532371410fec033baae79fb1ed1418d", 1038),
    ("compute wavefunction --kind phi_dual --m 6 --xbar 2,5 --seed 5 "
     "--format json",
     "15b1088dc2d3d6062edf35867d02b40f0d3f3d38827597e39d354498dcfb0701", 610),
    ("compute wavefunction --kind psi --m 5 --x 2,4 --symbolic --format json",
     "fe9924bab20f5f2b4ec4665105215ec61abdf93af7ac8331f57a4c3e8b844b08", 6348),
    ("compute wavefunction --kind phi_dual --m 5 --xbar 1,4 --symbolic",
     "eba5aecc4b246fb7c8e7ab6e32fae9a818f4fa8ca3c046dd68f9d42349921eca", 3915),
    ("compute grothendieck --x 4,2,1 --seed 8",
     "4f9ff515c6841d566588a24df52886035d08931883bf3f9bdb51f4234cd84cca", 151),
    ("sample-params --seed 3",
     "7f0c53066e058ec5b559281138cac541cfc4de5629ec634a0709cf79ac2f8eb6", 109),
    ("verify all --mode eval --m 5 --n 2 --seed 4",
     "96380fba3646a03bf8a57461c3c5ef7bda24b90730ecd83263ec5af87f501496", 552),
    ("verify all --mode exact --m 3 --n 2",
     "96380fba3646a03bf8a57461c3c5ef7bda24b90730ecd83263ec5af87f501496", 552),
]


@pytest.mark.parametrize("argv, sha256, size", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, argv, sha256, size):
    code, out, err = run(capsys, *argv.split())
    # verify reports carry a wall-time field; everything else is pinned
    data = re.sub(r'"ms": [0-9.]+', '"ms": 0', out).encode()
    assert code == 0 and err == ""
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)


@pytest.mark.parametrize("argv", [
    "verify correspondence --m 2 --n 3",
    "verify branching --m 2 --n 2",
    "verify pairing --m 3 --n 5",
    "verify all --mode eval --trials 0",
    "compute grothendieck --x 1,3",
    "verify ik-properties --n 1",
    "verify dwbp --n 0",
    "verify dwbp --n -1",
    "verify rll --m -3 --n -1",
    "verify ybe --n -1",
    "verify dwbp --m -1 --n 2",
    "compute skew --m 5 --x 3,1,5 --xbar 2,4",
    "compute grothendieck",
    "compute dwbp-sum",
    "compute dwbp-sum --n 0",
    "compute dwbp-det --n 2 --kind bogus",
    "compute skew --kind X --m 5 --x 1,3,5 --xbar 2,4",
    "compute skew --m 5 --x 1,3 --xbar 2,4",
    "compute skew --m 5 --x 1,3,5",
    "compute family --x 1,2",
    "compute family --kind H --m 4 --x 1,2",
    "compute wavefunction --m 4 --x 1,a",
])
def test_invalid_sizes_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == "" and err.startswith("error: ")
