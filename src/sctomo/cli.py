"""Command-line interface.

Commands: sct simulate | reconstruct | jacobian | sweep | validate.
Standard output is line-oriented and stable-ordered; diagnostics go to
standard error.  Exit codes: 0 ok, 2 parse/schema error, 3 dimension
mismatch, 4 no convergence (result file still written) or structural
singularity, 5 fingerprint mismatch.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from io import StringIO

import numpy as np

from . import identify, invert, io, validation
from .errors import (DimensionMismatch, FingerprintMismatch, NoConvergence,
                     SchemaError, SctError, StructuralSingularity)
from .forward import simulate_counts

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_DIMENSION = 3
EXIT_NO_CONVERGENCE = 4
EXIT_FINGERPRINT = 5


def _fail(message: str, code: int) -> int:
    print(f"sct: error: {message}", file=sys.stderr)
    return code


def _effective_seed(config_seed: int, cli_seed) -> int:
    env = os.environ.get("SCT_SEED")
    seed = config_seed
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise SchemaError(f"SCT_SEED: not an integer: {env!r}") from exc
    if cli_seed is not None:
        seed = int(cli_seed)
    return seed


def cmd_simulate(args) -> int:
    config = io.load_experiment(args.config)
    seed = _effective_seed(config.noise.seed, args.seed)
    noise = type(config.noise)(kind=config.noise.kind, shots=config.noise.shots,
                               sigma=config.noise.sigma, seed=seed)
    records = simulate_counts(config.truth_state, config.truth_unknowns,
                              config.protocol, noise)
    io.write_counts(args.out, config.protocol, records)
    print(f"protocol {config.protocol.name}")
    print(f"fingerprint {io.protocol_fingerprint(config.protocol)}")
    for rec in records:
        print(f"setting {rec.setting_index} value {io.format_float(rec.value)}")
    print(f"written {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    protocol = io.load_protocol(args.protocol)
    fingerprint, records = io.load_counts(args.counts)
    expected = io.protocol_fingerprint(protocol)
    if fingerprint != expected:
        raise FingerprintMismatch(
            f"counts were generated for fingerprint {fingerprint}, "
            f"protocol {protocol.name!r} has {expected}")
    options = invert.SolverOptions(objective=args.objective,
                                   max_iter=args.max_iter)
    result = invert.reconstruct(records, protocol, options)
    io.write_result(args.out, result, protocol)
    for name, value in zip(result.names, result.x):
        print(f"param {name} {io.format_float(float(value))}")
    print(f"residual {io.format_float(result.residual)}")
    det = result.jacobian_abs_det
    print(f"abs_det {io.format_float(det) if det is not None else 'n/a'}")
    print(f"condition_number {result.condition_number:.6g}")
    print(f"converged {'true' if result.converged else 'false'}")
    print(f"written {args.out}", file=sys.stderr)
    if not result.converged:
        print("sct: warning: the polish did not converge; best effort written",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_jacobian(args) -> int:
    protocol = io.load_protocol(args.protocol)
    state, unknowns = io.load_point(args.point, protocol.dim)
    report = identify.numeric_jacobian(protocol, state, unknowns)
    det = report.abs_determinant
    print(f"abs_det {io.format_float(det) if det is not None else 'n/a'}")
    print(f"smallest_singular_value {io.format_float(report.smallest_singular_value)}")
    cond = report.condition_number
    print(f"condition_number {io.format_float(cond) if np.isfinite(cond) else 'inf'}")
    if args.pattern:
        mask = ~report.near_zero_mask()
        for row in mask.astype(int):
            print("pattern " + "".join(str(v) for v in row))
    return EXIT_OK


def _parse_axis(spec: str):
    try:
        name, rng = spec.split("=", 1)
        lo, hi = (float(v) for v in rng.split(":", 1))
    except ValueError as exc:
        raise SchemaError(f"axis spec {spec!r} (expected NAME=LO:HI)") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise SchemaError(
            f"axis spec {spec!r}: LO and HI must be finite with LO < HI")
    return name.strip(), (lo, hi)


def cmd_sweep(args) -> int:
    protocol = io.load_protocol(args.protocol)
    state, unknowns = io.load_point(args.point, protocol.dim)
    axes = dict(_parse_axis(spec) for spec in args.axis)
    scan = identify.singularity_scan(protocol, state, unknowns, axes, args.grid)
    stream = StringIO()
    scan.to_csv(stream)
    io.write_text(args.out, stream.getvalue())
    flagged = sum(1 for row in scan.rows if row[-1])
    print(f"rows {len(scan.rows)}")
    print(f"flagged {flagged}")
    print(f"written {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    results = validation.run_suite(args.suite, seed=args.seed)
    for check in results:
        print(check.line())
    io.write_text(args.conventions_out, validation.conventions_report())
    print(f"conventions report written to {args.conventions_out}",
          file=sys.stderr)
    return EXIT_OK if all(c.passed for c in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sct",
        description="Self-calibrating tomography: simulate, reconstruct, analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate counts from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides SCT_SEED and the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="estimate unknowns from counts")
    p.add_argument("--counts", required=True)
    p.add_argument("--protocol", required=True, help="scenario name or file")
    p.add_argument("--objective", choices=list(invert.OBJECTIVES),
                   default="least_squares")
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("jacobian", help="Jacobian diagnostics at a point")
    p.add_argument("--protocol", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--pattern", action="store_true",
                   help="print the near-zero mask (1 = nonzero entry)")
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("sweep", help="grid scan of |det| along axes")
    p.add_argument("--protocol", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--axis", action="append", required=True,
                   metavar="NAME=LO:HI")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="run the acceptance checks")
    p.add_argument("--suite", choices=["quick", "full"], default="quick")
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--conventions-out", default="CONVENTIONS.txt")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SchemaError as exc:
        return _fail(str(exc), EXIT_SCHEMA)
    except DimensionMismatch as exc:
        return _fail(str(exc), EXIT_DIMENSION)
    except FingerprintMismatch as exc:
        return _fail(str(exc), EXIT_FINGERPRINT)
    except (NoConvergence, StructuralSingularity) as exc:
        return _fail(str(exc), EXIT_NO_CONVERGENCE)
    except SctError as exc:
        return _fail(str(exc), EXIT_SCHEMA)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
