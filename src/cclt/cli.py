"""Command-line front end.

Subcommands:

    bound      theorem + Lyapunov bounds for a matrix file, with the exact
               distance attached when enumeration is feasible (Monte Carlo
               otherwise)
    exact      exact Kolmogorov distance report by full enumeration
    charfn     characteristic-function evaluations and bounds on a t-grid
    sample     without-replacement sampling design bounds from a value list
    constants  the full constant-pipeline report
    verify     seeded self-verification suites (exit code 0 iff all pass)

Each subcommand takes only the options it reads: ``--output`` everywhere,
and ``--enum-cap``, ``--perm-cap``, ``--quad-tol``, ``--mc-samples`` and
``--seed`` where the command uses them.  ``--threads`` (Monte Carlo workers)
matters only to ``bound``; ``charfn``, ``sample`` and ``verify`` accept and
ignore it because existing callers pass it.  Every value a command reads is
range-checked, and ``--output`` checked for writing (a writable folder, not
itself a folder), before any work.  Each report is the ``as_dict`` of its
dataclass in JSON, plus a ``schema: 1`` version field added on output;
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import math
import os
import sys

import numpy as np

from .constants import (
    berry_esseen_bound,
    sampling_bound_specialized,
    theorem_constants,
)
from .errors import CcltError, ParameterError
from .exact import _check_mc_budget, enumerate_distribution, kolmogorov_distance, monte_carlo_delta
from .matrixio import load_score_matrix
from .permanents import PERM_CAP, evaluate_cf_grid
from .permtables import ENUM_CAP
from .scores import GammaProfile, from_sampling

_SCHEMA = 1


_OPTIONS = {
    "--enum-cap": dict(type=int, default=ENUM_CAP, help=f"max n for full enumeration (default {ENUM_CAP})"),
    "--perm-cap": dict(type=int, default=PERM_CAP, help=f"max n for permanent evaluation (default {PERM_CAP})"),
    "--quad-tol": dict(type=float, default=1e-10, help="quadrature absolute tolerance (default 1e-10)"),
    "--mc-samples": dict(type=int, default=10**6, help="Monte Carlo sample count (default 1e6)"),
    "--seed": dict(type=int, default=0, help="64-bit seed for randomized paths (default 0)"),
    "--threads": dict(type=int, default=1, help="Monte Carlo worker threads (default 1)"),
    "--output": dict(default=None, help="write the JSON report here instead of stdout"),
}


def _add_options(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags + ("--output",):
        parser.add_argument(flag, **_OPTIONS[flag])


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="matrix file (CSV rows or JSON {\"a\": [[...]]})")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="override format inference")


def _check_options(args: argparse.Namespace) -> None:
    """Reject each out-of-range value the command reads."""
    opts = vars(args)
    if opts.get("enum_cap", 2) < 2 or opts.get("perm_cap", 2) < 2:
        raise ParameterError("enumeration and permanent caps must be >= 2")
    if not opts.get("quad_tol", 1.0) > 0:
        raise ParameterError(f"quad tolerance must be positive, got {args.quad_tol}")
    if opts.get("mc_samples", 10_000) < 10_000:
        raise ParameterError(f"mc samples must be >= 10000, got {args.mc_samples}")
    if opts.get("threads", 1) < 1:
        raise ParameterError(f"threads must be >= 1, got {args.threads}")
    if not 0 <= opts.get("seed", 0) < 1 << 64:
        raise ParameterError(f"seed must be in [0, 2^64), got {args.seed}")
    if not args.output:
        return
    folder = os.path.dirname(args.output) or "."
    if os.path.isdir(args.output):
        reason = errno.EISDIR
    elif not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        reason = errno.EACCES if os.path.isdir(folder) else errno.ENOENT
    else:
        return
    raise CcltError(f"--output {args.output}: cannot write: {os.strerror(reason)}")


def _emit(payload: dict, output: str | None) -> None:
    text = json.dumps({**payload, "schema": _SCHEMA}, sort_keys=True, indent=2) + "\n"
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CcltError(f"--output {output}: cannot write: {exc.strerror or exc}") from None


def _parse_t_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParameterError(f"t-grid must be start:stop:count, got {spec!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParameterError(f"t-grid must be start:stop:count with numeric fields, got {spec!r}") from None
    for name, value in (("start", start), ("stop", stop)):
        if not math.isfinite(value):
            raise ParameterError(f"t-grid {name} must be finite, got {value}")
    if count < 1:
        raise ParameterError(f"t-grid count must be >= 1, got {count}")
    return np.linspace(start, stop, count)


def _bound_payload(matrix, args: argparse.Namespace) -> dict:
    if matrix.n > args.enum_cap:  # Monte Carlo: refuse its sample before the profile
        _check_mc_budget(args.mc_samples)
    profile = GammaProfile(matrix)
    report = berry_esseen_bound(profile, enum_cap=args.enum_cap, attach_delta=True)
    if report.delta_report is None:
        mc = monte_carlo_delta(profile, args.mc_samples, args.seed, threads=args.threads)
        report = dataclasses.replace(report, delta_report=mc, slack=report.bound - mc.delta)
    return report.as_dict()


def _cmd_bound(args: argparse.Namespace) -> int:
    matrix = load_score_matrix(args.input, fmt=args.format)
    _emit(_bound_payload(matrix, args), args.output)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    matrix = load_score_matrix(args.input, fmt=args.format)
    dist = enumerate_distribution(matrix, enum_cap=args.enum_cap)
    _emit(kolmogorov_distance(dist).as_dict(), args.output)
    return 0


def _cmd_charfn(args: argparse.Namespace) -> int:
    matrix = load_score_matrix(args.input, fmt=args.format)
    ts = _parse_t_grid(args.t_grid)
    points = [ev.as_dict() for ev in evaluate_cf_grid(matrix, ts, tol=args.quad_tol, perm_cap=args.perm_cap)]
    _emit({"n": matrix.n, "points": points}, args.output)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    try:
        values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"--values must be comma-separated decimals, got {args.values!r}") from None
    design = from_sampling(values, args.m_draw)
    if design.degenerate:
        raise ParameterError(
            "degenerate sampling design (sigma2 = 0): constant values or a full draw"
        )
    report = berry_esseen_bound(design.matrix, enum_cap=args.enum_cap, attach_delta=True)
    specialized = sampling_bound_specialized(values, args.m_draw)
    if abs(specialized - report.bound) > 1e-10 * max(1.0, report.bound):
        raise CcltError(
            f"specialized sampling bound {specialized} disagrees with generic bound {report.bound}"
        )
    payload = {**report.as_dict(), "m_draw": args.m_draw, "values": values, "bound_specialized": specialized}
    _emit(payload, args.output)
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    report = theorem_constants(w=args.w, m=args.m, c4=args.c4, c5=args.c5, c6=args.c6)
    notes = {"truncated_lyapunov_constant": "max(1709, 50*C0 + 6); not computable, C0 is not explicitly published"}
    _emit({**report.as_dict(), "notes": notes}, args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite  # the battery loads only for this command

    summary = run_suite(args.suite, seed=args.seed, quad_tol=args.quad_tol)
    _emit(summary, args.output)
    return 0 if summary["passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cclt",
        description="Exact verification of normal-approximation error bounds for permutation statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="theorem and Lyapunov bounds for a score matrix")
    _add_input(p_bound)
    _add_options(p_bound, "--enum-cap", "--mc-samples", "--seed", "--threads")
    p_bound.set_defaults(func=_cmd_bound)

    p_exact = sub.add_parser("exact", help="exact Kolmogorov distance by enumeration")
    _add_input(p_exact)
    _add_options(p_exact, "--enum-cap")
    p_exact.set_defaults(func=_cmd_exact)

    p_cf = sub.add_parser("charfn", help="characteristic function and bounds on a t-grid")
    _add_input(p_cf)
    p_cf.add_argument("--t-grid", required=True, help="evaluation grid as start:stop:count")
    _add_options(p_cf, "--perm-cap", "--quad-tol", "--threads")
    p_cf.set_defaults(func=_cmd_charfn)

    p_sample = sub.add_parser("sample", help="without-replacement sampling design bounds")
    p_sample.add_argument("--values", required=True, help="comma-separated population values")
    p_sample.add_argument("--m-draw", required=True, type=int, help="number of values drawn")
    _add_options(p_sample, "--enum-cap", "--threads")
    p_sample.set_defaults(func=_cmd_sample)

    p_const = sub.add_parser("constants", help="constant-pipeline report")
    p_const.add_argument("--w", type=float, default=0.89)
    p_const.add_argument("--m", type=int, default=1367)
    p_const.add_argument("--c4", type=float, default=7.915)
    p_const.add_argument("--c5", type=float, default=0.047)
    p_const.add_argument("--c6", type=float, default=33.0)
    _add_options(p_const)
    p_const.set_defaults(func=_cmd_constants)

    p_verify = sub.add_parser("verify", help="run a self-verification suite")
    p_verify.add_argument("suite", help="the suite to run; an unknown name is rejected with the list")
    _add_options(p_verify, "--seed", "--quad-tol", "--threads")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_options(args)
        return args.func(args)
    except CcltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
