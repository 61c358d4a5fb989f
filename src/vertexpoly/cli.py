"""Command-line frontend.

Three subcommands: `compute` evaluates one quantity (a wavefunction, a
family polynomial, a packed-boundary partition function, a skew factor or a
bialternant-form polynomial), `verify` runs named identity checks and emits
a JSON-lines report, and `sample-params` draws a seeded parameter set in
the format accepted by --params.

Exit codes: 0 success, 1 computation error (e.g. `compute dwbp-sum` with a
parameter file whose t is the ratio of two sampled spectral values, so that
an inversion denominator vanishes), 2 usage error (bad flags, out-of-range
configurations or check sizes, invalid parameter files), 3 verification
failure.  Identical invocations produce byte-identical output; symbolic
text output uses the graded-lexicographic monomial order.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .dwbp import z_det_hom, z_det_inhom, z_sum
from .lattice import _WAVE_KINDS, HoleConfig, ParticleConfig, wavefunction
from .params import ParamError, ParamSet
from .ring import (QQ, RatFunc, RingError, VarTable, distinct_rationals,
                   random_rational, ratfunc_to_json)
from .sympoly import _FAMILY_CONFIG, family_poly, grothendieck_det, skew_factor
from .verify import (CHECK_NAMES, CheckSpec, SpecError, default_suite,
                     reports_to_jsonl, run_checks)

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_COMPUTE = 1
_EXIT_USAGE = 2
_EXIT_VERIFY = 3

_QUANTITIES = ("wavefunction", "family", "dwbp-sum", "dwbp-det", "skew",
               "grothendieck")
_PARAM_KEYS = ("t", "a", "b", "c", "d")


class UsageError(Exception):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vertexpoly",
        description="Exact computation and verification of six-vertex "
                    "wavefunctions and their symmetric polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--m", type=int, default=None,
                        help="lattice length M")
        sp.add_argument("--n", type=int, default=None,
                        help="number of particles / spectral parameters N")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for sampled parameters and points")
        sp.add_argument("--params", metavar="FILE", default=None,
                        help="JSON parameter file with keys t, a, b, c, d "
                             "as rational strings (e and f are derived)")

    comp = sub.add_parser("compute", help="compute one quantity")
    comp.add_argument("quantity", choices=_QUANTITIES)
    common(comp)
    comp.add_argument("--x", default=None,
                      help="comma-separated particle positions (for skew: "
                           "the larger configuration; for grothendieck: "
                           "the partition)")
    comp.add_argument("--xbar", default=None,
                      help="comma-separated hole positions (for skew: the "
                           "smaller configuration)")
    comp.add_argument("--kind", default=None,
                      help="family/wavefunction kind, or determinant "
                           "variant for dwbp-det "
                           "(inhom | hom | dual-inhom | dual-hom)")
    comp.add_argument("--symbolic", action="store_true",
                      help="compute symbolically over free parameters")
    comp.add_argument("--format", choices=("json", "text"), default="text")

    ver = sub.add_parser("verify", help="run identity checks")
    ver.add_argument("check", choices=CHECK_NAMES + ("all",))
    common(ver)
    ver.add_argument("--mode", choices=("exact", "eval"), default="eval")
    ver.add_argument("--trials", type=int, default=5,
                     help="random points per check in eval mode")

    samp = sub.add_parser("sample-params",
                          help="print a seeded random parameter file")
    samp.add_argument("--seed", type=int, default=0)
    return parser


def _parse_positions(text, flag):
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated integer list")
    return values


def _load_params(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read parameter file: {exc}")
    if not isinstance(obj, dict) or set(obj) != set(_PARAM_KEYS):
        raise UsageError(
            f"parameter file must have exactly the keys {_PARAM_KEYS}")
    values = {}
    for key in _PARAM_KEYS:
        try:
            num, _, den = str(obj[key]).partition("/")
            values[key] = QQ(int(num), int(den)) if den else QQ(int(num))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"parameter {key} is not a rational p/q string")
    try:
        return ParamSet(*(values[k] for k in _PARAM_KEYS))
    except ParamError as exc:
        raise UsageError(f"invalid parameters: {exc}")


def _numeric_spectral(seed, n):
    return distinct_rationals(random.Random(seed * 0x5DEECE66D + 11), n)


def _emit(value, fmt):
    if fmt == "json":
        if isinstance(value, RatFunc):
            print(json.dumps(ratfunc_to_json(value)))
        else:
            print(json.dumps({"value": str(value)}))
    else:
        print(value)


def _config_for(kind, flavour, m, x, xbar):
    """The kind's configuration class on --x or --xbar, range-checked."""
    pos, flag = (xbar, "--xbar") if flavour is HoleConfig else (x, "--x")
    if pos is None:
        raise UsageError(f"kind {kind} requires {flag}")
    try:
        return flavour(m, pos)
    except RingError as exc:
        raise UsageError(str(exc))


def _cmd_compute(args):
    x = _parse_positions(args.x, "--x") if args.x else None
    xbar = _parse_positions(args.xbar, "--xbar") if args.xbar else None
    q = args.quantity

    if q == "grothendieck":
        if x is None:
            raise UsageError("grothendieck requires --x as the partition")
        lam = x
        if any(a < b for a, b in zip(lam, lam[1:])) or min(lam) < 0:
            raise UsageError(f"--x {args.x} is not a partition (weakly "
                             "decreasing, non-negative parts)")
        n = len(lam)
        if args.symbolic:
            vt = VarTable(["beta"] + [f"z{j}" for j in range(1, n + 1)])
            beta = RatFunc(vt.var("beta"))
            zs = [RatFunc(vt.var(f"z{j}")) for j in range(1, n + 1)]
        else:
            beta = random_rational(random.Random(args.seed * 0x5DEECE66D + 29))
            zs = _numeric_spectral(args.seed + 1, n)
        _emit(grothendieck_det(lam, zs, beta), args.format)
        return _EXIT_OK

    if q in ("dwbp-sum", "dwbp-det"):
        n = args.n
        if n is None:
            raise UsageError(f"{q} requires --n")
        if n < 1:
            raise UsageError("--n must be at least 1")
        variant = args.kind or ("inhom" if q == "dwbp-det" else None)
        if q == "dwbp-det" and variant not in ("inhom", "hom", "dual-inhom",
                                               "dual-hom"):
            raise UsageError(f"unknown dwbp-det variant {variant!r}")
        inhomogeneous = variant in ("inhom", "dual-inhom")
        p, us, ws = _setup(args, n, n if inhomogeneous else 0)
        if q == "dwbp-sum":
            _emit(z_sum(us, p), args.format)
        elif inhomogeneous:
            _emit(z_det_inhom(us, p, ws=ws, dual=variant == "dual-inhom"),
                  args.format)
        else:
            _emit(z_det_hom(n, us, p, dual=variant == "dual-hom"),
                  args.format)
        return _EXIT_OK

    if q == "skew":
        kind = args.kind or "G"
        if kind not in _FAMILY_CONFIG:
            raise UsageError(f"unknown family kind {kind!r}")
        if args.m is None or x is None or xbar is None:
            raise UsageError("skew requires --m, --x (larger configuration) "
                             "and --xbar (smaller configuration)")
        for pos in (x, xbar):
            try:
                ParticleConfig(args.m, pos)
            except RingError as exc:
                raise UsageError(str(exc))
        if len(x) != len(xbar) + 1:
            raise UsageError("the larger configuration must have exactly "
                             "one more entry than the smaller")
        p, us, _ = _setup(args, 1)
        _emit(skew_factor(kind, x, xbar, us[0], p, args.m), args.format)
        return _EXIT_OK

    # wavefunction / family
    if args.m is None:
        raise UsageError(f"{q} requires --m")
    if q == "family":
        kind, flavours = args.kind or "G", _FAMILY_CONFIG
    else:
        kind = args.kind or "psi"
        flavours = {k: row[3] for k, row in _WAVE_KINDS.items()}
    if kind not in flavours:
        raise UsageError(f"unknown {q} kind {kind!r}")
    config = _config_for(kind, flavours[kind], args.m, x, xbar)
    p, us, _ = _setup(args, len(config))
    if q == "family":
        _emit(family_poly(kind, config, us, p), args.format)
    else:
        _emit(wavefunction(kind, config, us, p), args.format)
    return _EXIT_OK


def _setup(args, n_u, n_w=0):
    """Parameters, spectral list and inhomogeneities (None unless n_w > 0)
    for a compute invocation."""
    params = _load_params(args.params) if args.params else None
    if args.symbolic:
        p = ParamSet.symbolic_canonical(n_u, n_w, numeric=params)
        return p, p.spectral(n_u), p.w
    p = params or ParamSet.sample(args.seed)
    ws = _numeric_spectral(args.seed + 7, n_w) if n_w else None
    return p, _numeric_spectral(args.seed, n_u), ws


def _cmd_verify(args):
    params = _load_params(args.params) if args.params else None
    m = args.m if args.m is not None else 4
    n = args.n if args.n is not None else 2
    if args.check == "all":
        specs = default_suite(m=m, n=n, mode=args.mode, seed=args.seed,
                              trials=args.trials, params=params)
    else:
        specs = [CheckSpec(args.check, m=m, n=n, mode=args.mode,
                           seed=args.seed, trials=args.trials, params=params)]
    reports = run_checks(specs)
    print(reports_to_jsonl(reports))
    return _EXIT_OK if all(r.passed for r in reports) else _EXIT_VERIFY


def _cmd_sample_params(args):
    p = ParamSet.sample(args.seed)
    print(json.dumps({k: str(getattr(p, k)) for k in _PARAM_KEYS},
                     sort_keys=True))
    return _EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_sample_params(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except ParamError as exc:
        print(f"error: invalid parameters: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (RingError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
