"""The workload process: runs a job list in a closed loop, or times set-up.

    python3 perfbench/worker.py run SPEC RESULT
    python3 perfbench/worker.py probe WARMUPS

``run`` executes the warm-up jobs untimed, then whole rounds of the job list
one job at a time while another round fits in ``seconds`` (and until at
least ``min_rounds`` rounds ran).  With ``trace`` set, every second round
runs with the layer tracer installed.  It writes per-job times and
calibration times, exit codes, the first report of each job, the number of
later reports that differ from it, the peak RSS and the per-round trace
summaries to RESULT.

``probe`` measures, in this fresh process, the seconds to import
``cclt.cli`` and finish lazy set-up (``kappa()``, ``v_of_w`` and the
warm-up jobs) and the calibration time around them, and prints both as
JSON.

The host's speed drifts by up to a factor of 1.8 within seconds on a shared
virtual machine, so every timed job and set-up is bracketed by a fixed
calibration kernel that uses no ``cclt`` code (see ``calibrate``).  The
kernel's time just before and just after a job gives the host's speed
during it.

Only the standard library is imported before the timed part of ``probe``.
``cclt`` is imported from the ``src`` directory of this checkout.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Seconds the calibration kernel takes at the reference speed: a 2-vCPU Xeon
# virtual machine while no neighbour contends for its cores.  Timed figures
# are reported at this speed.
CAL_REF_PYTHON_S = 0.009
CAL_REF_S = 0.020


def _calibrate_python() -> None:
    """Fixed interpreter work: integer arithmetic, dict and str churn."""
    x = 0
    for i in range(120_000):
        x += i * i
    table = {}
    for i in range(12_000):
        table[i] = str(i)
    sorted(table.values())


_CAL_ARRAYS = None


def _calibrate_numpy() -> None:
    """Fixed array work: a stable sort, complex products, reductions."""
    global _CAL_ARRAYS
    import numpy as np

    if _CAL_ARRAYS is None:
        rng = np.random.default_rng(0)
        _CAL_ARRAYS = (rng.standard_normal(60_000), rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
    v, z = _CAL_ARRAYS
    for _ in range(2):
        np.sort(v, kind="stable")
        np.cumprod(z, axis=0).sum()
        (z * z.conj()).sum(axis=1)


def calibrate(with_numpy: bool = True) -> float:
    """Seconds the calibration kernel takes now (numpy part only if asked)."""
    start = time.perf_counter()
    _calibrate_python()
    if with_numpy:
        _calibrate_numpy()
    return time.perf_counter() - start


def _import_cclt():
    sys.path.insert(0, str(SRC))
    import cclt
    import cclt.cli

    if not Path(cclt.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cclt was imported from {cclt.__file__}, not from {SRC}")
    return cclt


def run_job(cclt, job: dict) -> tuple[int, str | None]:
    """Run one job; returns (exit code, report text for library jobs)."""
    kind = job["kind"]
    if kind == "cli":
        try:
            return cclt.cli.main(job["argv"]), None
        except SystemExit as exc:  # argparse rejected the argv
            return exc.code if isinstance(exc.code, int) else 2, None
    if kind == "identity":
        res = cclt.identity_check(cclt.load_complex_matrix(job["input"]), tol=job["tol"])
        out = {"lhs": [res.lhs.real, res.lhs.imag], "rhs": [res.rhs.real, res.rhs.imag], "residual": res.residual}
    elif kind == "smoothing":
        m = cclt.load_score_matrix(job["input"])
        out = {"value": cclt.smoothing_bound(m, job["w"], job["T"], tol=job["tol"])}
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return 0, json.dumps(out, sort_keys=True)


def _execute(cclt, job: dict) -> tuple[float, int, str | None, str | None]:
    """Time one job; returns (seconds, exit code, report text, error)."""
    if job["kind"] == "cli":
        Path(job["output"]).unlink(missing_ok=True)
    error = None
    start = time.perf_counter()
    try:
        code, text = run_job(cclt, job)
    except Exception as exc:  # a failing job is counted, the loop goes on
        code, text, error = 1, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if job["kind"] == "cli" and error is None:
        out = Path(job["output"])
        text = out.read_text() if out.is_file() else None
    return elapsed, code, text, error


def run(spec_path: str, result_path: str) -> None:
    import resource

    spec = json.loads(Path(spec_path).read_text())
    cclt = _import_cclt()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    for job in spec["warmups"]:
        _, code, _, error = _execute(cclt, job)
        if code != 0 or error:
            raise RuntimeError(f"warm-up job {job['name']} failed: exit {code}, {error}")

    jobs = spec["jobs"]
    min_rounds = spec["min_rounds"]
    seconds = spec["seconds"]
    first: dict[str, str | None] = {}
    result = {
        "rounds": [],
        "codes": {j["name"]: [] for j in jobs},
        "errors": {},
        "outputs": {},
        "mismatches": {j["name"]: 0 for j in jobs},
        "trace": [],
    }
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = len(result["rounds"])
        # Start another round only if it should end within the time asked for.
        longest = max((r["span_s"] for r in result["rounds"]), default=0.0)
        if done >= min_rounds and elapsed + longest > seconds:
            break
        if done >= 1 + bool(tracer) and elapsed + longest > spec["max_seconds"]:
            break
        traced = tracer is not None and done % 2 == 1
        if traced:
            tracer.install()
            tracer.reset()
        times, cals = {}, {}
        round_start = time.perf_counter()
        cal = None if traced else calibrate()
        for job in jobs:
            name = job["name"]
            times[name], code, text, error = _execute(cclt, job)
            if not traced:
                after = calibrate()
                cals[name] = (cal + after) / 2
                cal = after
            result["codes"][name].append(code)
            if error:
                result["errors"].setdefault(name, error)
            if name not in first:
                first[name] = text
            elif text != first[name]:
                result["mismatches"][name] += 1
            if traced and job["kind"] == "cli" and text is not None:
                tracer.count("cli.report_bytes", len(text.encode()))
        if traced:
            traced_wall = tracer.close()
            tracer.uninstall()
            summary = tracer.summary()
            summary["wall_s"] = traced_wall
            result["trace"].append(summary)
        result["rounds"].append({
            "traced": traced,
            "wall_s": sum(times.values()),
            "span_s": time.perf_counter() - round_start,
            "jobs": times,
            "cal": cals,
        })

    result["outputs"] = first
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    Path(result_path).write_text(json.dumps(result))


def probe(warmups_path: str) -> None:
    before = calibrate(with_numpy=False)
    start = time.perf_counter()
    cclt = _import_cclt()
    from cclt.analytic import kappa, v_of_w

    kappa()
    v_of_w(0.89)
    for job in json.loads(Path(warmups_path).read_text()):
        code, _ = run_job(cclt, job)
        if code != 0:
            raise RuntimeError(f"warm-up job {job['name']} exited {code}")
    setup = time.perf_counter() - start
    after = calibrate(with_numpy=False)
    print(json.dumps({"setup_s": setup, "cal_s": (before + after) / 2}))


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "run":
        run(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 3 and sys.argv[1] == "probe":
        probe(sys.argv[2])
    else:
        sys.exit("usage: worker.py run SPEC RESULT | worker.py probe WARMUPS")
