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

All reports are JSON with a ``schema: 1`` version field; identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .constants import (
    berry_esseen_bound,
    sampling_bound_specialized,
    theorem_constants,
)
from .errors import CcltError, ParameterError
from .exact import enumerate_distribution, kolmogorov_distance, monte_carlo_delta
from .matrixio import load_score_matrix
from .permanents import evaluate_cf_grid
from .scores import GammaProfile, from_sampling
from .verify import SUITE_NAMES, run_suite

_SCHEMA = 1


@dataclass(frozen=True)
class RunConfig:
    """Validated execution knobs shared by the subcommands."""

    enum_cap: int = 10
    perm_cap: int = 20
    quad_tol: float = 1e-10
    mc_samples: int = 10**6
    seed: int = 0
    threads: int = 1
    output: str | None = None

    def __post_init__(self):
        if self.enum_cap < 2 or self.perm_cap < 2:
            raise ParameterError("enumeration and permanent caps must be >= 2")
        if not self.quad_tol > 0:
            raise ParameterError(f"quad tolerance must be positive, got {self.quad_tol}")
        if self.mc_samples < 10_000:
            raise ParameterError(f"mc samples must be >= 10000, got {self.mc_samples}")
        if self.threads < 1:
            raise ParameterError(f"threads must be >= 1, got {self.threads}")


def _default_threads() -> int:
    env = os.environ.get("CCLT_THREADS")
    if env is None:
        return 1
    try:
        return int(env)
    except ValueError:
        raise ParameterError(f"CCLT_THREADS must be an integer, got {env!r}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--enum-cap", type=int, default=10, help="max n for full enumeration (default 10)")
    parser.add_argument("--perm-cap", type=int, default=20, help="max n for permanent evaluation (default 20)")
    parser.add_argument("--quad-tol", type=float, default=1e-10, help="quadrature absolute tolerance (default 1e-10)")
    parser.add_argument("--mc-samples", type=int, default=10**6, help="Monte Carlo sample count (default 1e6)")
    parser.add_argument("--seed", type=int, default=0, help="64-bit seed for randomized paths (default 0)")
    parser.add_argument("--threads", type=int, default=None, help="Monte Carlo worker threads (default CCLT_THREADS or 1)")
    parser.add_argument("--output", default=None, help="write the JSON report here instead of stdout")


def _add_input(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="matrix file (CSV rows or JSON {\"a\": [[...]]})")
    parser.add_argument("--format", choices=("csv", "json"), default=None, help="override format inference")


def _config(args: argparse.Namespace) -> RunConfig:
    threads = args.threads if args.threads is not None else _default_threads()
    return RunConfig(
        enum_cap=args.enum_cap,
        perm_cap=args.perm_cap,
        quad_tol=args.quad_tol,
        mc_samples=args.mc_samples,
        seed=args.seed,
        threads=threads,
        output=args.output,
    )


def _emit(payload: dict, config: RunConfig) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _bound_payload(matrix, config: RunConfig) -> dict:
    profile = GammaProfile(matrix)
    report = berry_esseen_bound(profile, enum_cap=config.enum_cap, attach_delta=True)
    payload = report.as_dict()
    if report.delta_report is None:
        mc = monte_carlo_delta(profile, config.mc_samples, config.seed, threads=config.threads)
        payload["delta"] = mc.as_dict()
        payload["slack"] = report.bound - mc.delta
    payload["schema"] = _SCHEMA
    return payload


def _cmd_bound(args: argparse.Namespace) -> int:
    config = _config(args)
    matrix = load_score_matrix(args.input, fmt=args.format)
    _emit(_bound_payload(matrix, config), config)
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    config = _config(args)
    matrix = load_score_matrix(args.input, fmt=args.format)
    dist = enumerate_distribution(matrix, enum_cap=config.enum_cap)
    payload = kolmogorov_distance(dist).as_dict()
    payload["schema"] = _SCHEMA
    _emit(payload, config)
    return 0


def _cmd_charfn(args: argparse.Namespace) -> int:
    config = _config(args)
    matrix = load_score_matrix(args.input, fmt=args.format)
    ts = _parse_t_grid(args.t_grid)
    points = [ev.as_dict() for ev in evaluate_cf_grid(matrix, ts, tol=config.quad_tol, perm_cap=config.perm_cap)]
    _emit({"schema": _SCHEMA, "n": matrix.n, "points": points}, config)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    config = _config(args)
    try:
        values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"--values must be comma-separated decimals, got {args.values!r}") from None
    design = from_sampling(values, args.m_draw)
    if design.degenerate:
        raise ParameterError(
            "degenerate sampling design (sigma2 = 0): constant values or a full draw"
        )
    report = berry_esseen_bound(design.matrix, enum_cap=config.enum_cap, attach_delta=True)
    specialized = sampling_bound_specialized(values, args.m_draw, design.sigma2)
    if abs(specialized - report.bound) > 1e-10 * max(1.0, report.bound):
        raise RuntimeError(
            f"specialized sampling bound {specialized} disagrees with generic bound {report.bound}"
        )
    payload = report.as_dict()
    payload.update(
        {
            "schema": _SCHEMA,
            "m_draw": args.m_draw,
            "values": values,
            "bound_specialized": specialized,
        }
    )
    _emit(payload, config)
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    config = _config(args)
    report = theorem_constants(w=args.w, m=args.m, c4=args.c4, c5=args.c5, c6=args.c6)
    payload = report.as_dict()
    payload["schema"] = _SCHEMA
    payload["notes"] = {
        "truncated_lyapunov_constant": "max(1709, 50*C0 + 6); not computable, C0 is not explicitly published"
    }
    _emit(payload, config)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _config(args)
    summary = run_suite(args.suite, seed=config.seed, quad_tol=config.quad_tol)
    _emit(summary, config)
    return 0 if summary["passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cclt",
        description="Exact verification of normal-approximation error bounds for permutation statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="theorem and Lyapunov bounds for a score matrix")
    _add_input(p_bound)
    _add_common(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_exact = sub.add_parser("exact", help="exact Kolmogorov distance by enumeration")
    _add_input(p_exact)
    _add_common(p_exact)
    p_exact.set_defaults(func=_cmd_exact)

    p_cf = sub.add_parser("charfn", help="characteristic function and bounds on a t-grid")
    _add_input(p_cf)
    p_cf.add_argument("--t-grid", required=True, help="evaluation grid as start:stop:count")
    _add_common(p_cf)
    p_cf.set_defaults(func=_cmd_charfn)

    p_sample = sub.add_parser("sample", help="without-replacement sampling design bounds")
    p_sample.add_argument("--values", required=True, help="comma-separated population values")
    p_sample.add_argument("--m-draw", required=True, type=int, help="number of values drawn")
    _add_common(p_sample)
    p_sample.set_defaults(func=_cmd_sample)

    p_const = sub.add_parser("constants", help="constant-pipeline report")
    p_const.add_argument("--w", type=float, default=0.89)
    p_const.add_argument("--m", type=int, default=1367)
    p_const.add_argument("--c4", type=float, default=7.915)
    p_const.add_argument("--c5", type=float, default=0.047)
    p_const.add_argument("--c6", type=float, default=33.0)
    _add_common(p_const)
    p_const.set_defaults(func=_cmd_constants)

    p_verify = sub.add_parser("verify", help="run a self-verification suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    _add_common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CcltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
