"""cclt benchmark: four report workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record-reference

Run from the root of a checkout that holds ``src/cclt``.  NAME is one of
bound-exact, bound-large, charfn-grid, verify-oracles (see README.md).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics ``wall_s``, ``setup_s`` and ``peak_rss_mb``; the two
times are rescaled to a reference host speed by the calibration kernel in
``worker.py`` (see README.md, *Host-speed calibration*); with
``--trace 1`` it holds the per-layer metrics.  ``correct``, ``attempted`` and
``failed`` count every job run in the measured rounds and whether each
passed its output check.  ``--workload all`` runs every workload in its own
process and prints one table.  ``--record-reference`` rewrites
``reference.json`` from the anchor jobs of the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checker import check_job
from tracer import COUNTERS, LAYERS
from worker import CAL_REF_PYTHON_S, CAL_REF_S
from workloads import THREADS, WORKLOADS, available_bytes, build_jobs, build_warmups, memory_guard

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
PYTHON = sys.executable or "python3"
SETUP_PROBES = 7
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4  # alternating untraced / traced
DEADLINE_S = 170.0  # the whole run, set-up probes included, ends before this

# Metric names and units come from the benchmark definition at the repository root.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    """Child environment: BLAS and OpenMP pools pinned to the job thread count."""
    env = dict(os.environ)
    env.pop("CCLT_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 1.0:
        raise BenchError("out of time before the run finished")
    return left


def _child(args: list[str], deadline: float) -> str:
    """Run a child process to completion (killed and reaped on timeout)."""
    try:
        proc = subprocess.run(
            [PYTHON, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return proc.stdout


def measure_setup(warmups: list[dict], workdir: Path, deadline: float) -> list[dict]:
    path = workdir / "warmups.json"
    path.write_text(json.dumps(warmups))
    return [json.loads(_child(["probe", str(path)], deadline).splitlines()[-1])
            for _ in range(SETUP_PROBES)]


def run_worker(jobs, warmups, seconds: float, trace: bool, workdir: Path, deadline: float,
               min_rounds: int) -> dict:
    spec = workdir / "spec.json"
    result = workdir / "result.json"
    spec.write_text(json.dumps({
        "jobs": jobs,
        "warmups": warmups,
        "seconds": seconds,
        "max_seconds": max(seconds, min(3 * seconds, _remaining(deadline) - 30.0)),
        "min_rounds": min_rounds,
        "trace": int(trace),
    }))
    _child(["run", str(spec), str(result)], deadline)
    return json.loads(result.read_text())


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def check_outputs(workload: str, jobs: list[dict], result: dict) -> tuple[int, int, list[str]]:
    """Return (attempted, failed, problems) over every job execution."""
    reference = load_reference().get(workload, {})
    attempted = failed = 0
    problems = []
    for job in jobs:
        name = job["name"]
        codes = result["codes"][name]
        text = result["outputs"].get(name)
        error = result["errors"].get(name)
        issues = [error] if error else []
        if not issues:
            try:
                out = json.loads(text) if text is not None else None
            except json.JSONDecodeError as exc:
                out, issues = None, [f"report is not JSON: {exc}"]
            if not issues:
                issues = check_job(job, out, codes[0], reference.get(name))
        attempted += len(codes)
        if issues:
            failed += len(codes)
            problems += [f"{name}: {msg}" for msg in issues]
        else:
            bad = result["mismatches"][name] + sum(1 for c in codes[1:] if c != codes[0])
            failed += bad
            if bad:
                problems.append(f"{name}: {bad} later runs gave a different report or exit code")
    return attempted, failed, problems


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def at_reference_speed(seconds: float, cal_s: float, cal_ref_s: float) -> float:
    """A time measured while the calibration kernel took ``cal_s``, rescaled to
    the host speed at which it takes ``cal_ref_s``."""
    return seconds * cal_ref_s / cal_s


def job_times(result, name: str) -> list[float]:
    """One job's times in the untraced rounds, at reference speed."""
    return [at_reference_speed(r["jobs"][name], r["cal"][name], CAL_REF_S)
            for r in result["rounds"] if not r["traced"]]


def end_to_end(jobs, result, setup: list[dict]) -> dict:
    wall = sum(_median(job_times(result, j["name"])) for j in jobs)
    setup_s = _median([at_reference_speed(p["setup_s"], p["cal_s"], CAL_REF_PYTHON_S) for p in setup])
    return {"wall_s": wall, "setup_s": setup_s, "peak_rss_mb": result["peak_rss_mb"]}


def _code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def per_layer(workload: str, seed: int, result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced rounds, and any broken trace invariant.

    Work counters must repeat in every traced round and in every run of the
    same code and seed in this checkout; layer busy times plus harness time
    must add up to each traced round's wall time.
    """
    traced = result["trace"]
    untraced = [r["wall_s"] for r in result["rounds"] if not r["traced"]]
    problems = []
    for name in COUNTERS:
        values = {t[name] for t in traced}
        if len(values) > 1:
            problems.append(f"work counter {name} differs between rounds: {sorted(values)}")
    for t in traced:
        layers = sum(t[f"{layer}.busy_s"] for layer in LAYERS) + t["harness.busy_s"]
        if abs(layers - t["wall_s"]) > 1e-6 * max(1.0, t["wall_s"]):
            problems.append(f"layer busy times sum to {layers}, traced wall is {t['wall_s']}")
    counters = {name: traced[0][name] for name in COUNTERS}
    record = WORK / f"counters-{workload}-{seed}-{_code_digest()}.json"
    if record.is_file():
        before = json.loads(record.read_text())
        for name, value in counters.items():
            if before.get(name) != value:
                problems.append(f"work counter {name} = {value}, an earlier run of this code had {before.get(name)}")
    else:
        record.write_text(json.dumps(counters, sort_keys=True))

    first = traced[0]
    med = {key: _median([t[key] for t in traced]) for key in first if key.endswith("_s")}
    out = {}
    for name in PER_LAYER:
        if name.endswith(".busy_s"):
            out[name] = med[name]
        elif name in first:
            out[name] = first[name]
    out["permanents.gray_steps_per_s"] = _ratio(first["permanents.gray_steps"], med["permanents.kernel_s"])
    out["permanents.t_per_call"] = _ratio(first["permanents.t_values"], first["permanents.kernel_calls"])
    out["exact.perms_per_s"] = _ratio(first["exact.perms"], med["exact.enumerate_s"])
    out["exact.mc_samples_per_s"] = _ratio(first["exact.mc_samples"], med["exact.mc_s"])
    out["quadrature.points_per_integral"] = _ratio(first["quadrature.points"], first["quadrature.integrals"])
    out["scores.peak_alloc_mb"] = max(t["scores.peak_alloc_mb"] for t in traced)
    out["trace.wall_s"] = med["wall_s"]
    out["trace.overhead_s"] = med["wall_s"] - _median(untraced)
    return out, problems


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cclt_threads": THREADS,
        "blas_threads": int(_env()["OPENBLAS_NUM_THREADS"]),
    }


def _metric_json(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "cclt" / "__init__.py").is_file():
        raise BenchError(f"no cclt sources under {ROOT / 'src'}; run from the root of a cclt checkout")
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        jobs = build_jobs(workload, seed, workdir)
        warmups = build_warmups(workload, workdir)
        refusal = memory_guard(jobs, available_bytes())
        if refusal:
            print(f"perfbench: {refusal}", file=sys.stderr)
            return 3
        setup = [] if trace else measure_setup(warmups, workdir, deadline)
        result = run_worker(jobs, warmups, seconds, trace, workdir, deadline,
                            MIN_TRACED_ROUNDS if trace else MIN_ROUNDS)
        attempted, failed, problems = check_outputs(workload, jobs, result)
        if trace:
            metrics, trace_problems = per_layer(workload, seed, result)
            problems += trace_problems
            units = PER_LAYER
            (WORK / f"trace-{workload}-{seed}.json").write_text(json.dumps(result["trace"], indent=1))
        else:
            metrics, units = end_to_end(jobs, result, setup), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = machine()
    rounds = result["rounds"]
    print(f"perfbench workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"closed loop, one job at a time: {len(jobs)} jobs per round, {len(rounds)} rounds "
          f"({sum(r['traced'] for r in rounds)} traced)")
    for job in jobs:
        if trace:
            times, kind = [r["jobs"][job["name"]] for r in rounds if r["traced"]], "traced"
        else:
            times, kind = job_times(result, job["name"]), "at reference speed"
        print(f"  {job['name']:<28} median {_median(times):8.4f} s of {' '.join(f'{t:.3f}' for t in times)} ({kind})")
    if not trace:
        untraced = [r for r in rounds if not r["traced"]]
        slow = [c / CAL_REF_S for r in untraced for c in r["cal"].values()]
        print(f"host speed: calibration kernel at {min(slow):.2f}-{max(slow):.2f} x its reference time "
              f"(median {_median(slow):.2f}); wall_s and setup_s are rescaled to the reference")
        print(f"raw wall: {_median([r['wall_s'] for r in untraced]):.4f} s median per round")
        raw_setup = " ".join(f"{p['setup_s']:.4f}" for p in setup)
        print(f"setup_s raw samples: {raw_setup}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for msg in problems:
        print(f"FAILED {msg}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": _metric_json(metrics, units),
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; one table of the end-to-end metrics."""
    rows = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [PYTHON, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S + 10,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise BenchError(f"workload {workload} exited {proc.returncode}")
        rows.append((workload, json.loads(proc.stdout.strip().splitlines()[-1])))
    print(f"{'workload':<16}{'wall_s':>10}{'setup_s':>10}{'peak_rss_mb':>13}{'failed_frac':>16}")
    for workload, res in rows:
        m = res["metrics"]
        frac = f"{res['failed']}/{res['attempted']}"
        print(f"{workload:<16}{m['wall_s']['value']:>10.3f}{m['setup_s']['value']:>10.3f}"
              f"{m['peak_rss_mb']['value']:>13.1f}{frac:>16}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in rows),
        "attempted": sum(r["attempted"] for _, r in rows),
        "failed": sum(r["failed"] for _, r in rows),
        "metrics": {f"{w}.{k}": v for w, r in rows for k, v in r["metrics"].items()},
    }))
    return 0


def record_reference() -> int:
    """Run the anchor jobs once and store their reports in reference.json."""
    reference = {}
    for workload in WORKLOADS:
        workdir = WORK / f"reference-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            jobs = [j for j in build_jobs(workload, 0, workdir) if j["anchor"]]
            result = run_worker(jobs, build_warmups(workload, workdir), 0.0, False, workdir,
                                time.monotonic() + DEADLINE_S, 1)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reference[workload] = {}
        for job in jobs:
            if result["codes"][job["name"]] != [0]:
                raise BenchError(f"anchor job {job['name']} failed: {result['errors'].get(job['name'])}")
            reference[workload][job["name"]] = json.loads(result["outputs"][job["name"]])
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            return record_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args.seed, args.seconds)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
