"""Seeded inputs and fixed job lists for the four benchmark workloads.

A workload is a fixed list of jobs.  Each job is either one ``cclt`` CLI
invocation (argv only, its input a generated matrix file) or one call of a
public library oracle on a generated matrix file.  The sizes and kinds of the
jobs are fixed; the entries come from ``--seed``, so every seed gives the
same amount of work on different numbers.

Anchor jobs take their input from a fixed seed instead.  Their reports are
compared with values recorded from the seed commit (``reference.json``).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

THREADS = 2  # nproc of the reference machine: --threads of every job but verify, and the BLAS pins
ANCHOR_SEED = 2**63  # entropy word of anchor inputs; --seed must stay below it
QUAD_TOL = 1e-10  # cclt's default --quad-tol, used by the charfn checks
IDENTITY_TOL = 1e-10
SMOOTHING_W = 0.89
SMOOTHING_TOL = 1e-8
MC_SAMPLES = 10**6  # cclt's default --mc-samples

WORKLOADS = {
    "bound-exact": (
        "cclt bound on n = 9-10: Gaussian entries at three scales and lattice scores "
        "(Spearman, footrule, small integers); exact enumeration and the KS distance dominate"
    ),
    "bound-large": (
        "cclt bound on dense n = 30-60 (Monte Carlo, 1e6 samples) and cclt sample designs "
        "at n = 40-60; GammaProfile, Monte Carlo and peak memory dominate"
    ),
    "charfn-grid": (
        "cclt charfn on n = 14-18 over a 25-point t-grid on [0, 6/sigma] and one single-t job "
        "at n = 18; the Ryser kernel on wide t batches and on one huge permanent dominates"
    ),
    "verify-oracles": (
        "cclt verify all plus identity_check (complex n = 5-6) and smoothing_bound (n = 8-12, "
        "T in {2/sigma, 10/sigma}); many small permanents and quadratures, dispatch-bound"
    ),
}
_WORKLOAD_TAG = {name: i for i, name in enumerate(WORKLOADS)}


# ---------------------------------------------------------------------------
# matrix generators


def gaussian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    return scale * rng.standard_normal((n, n))


def spearman(rng: np.random.Generator, n: int) -> np.ndarray:
    """Spearman scores a[j, r] = p_j q_r for random rankings p, q of 1..n."""
    p = rng.permutation(n) + 1
    q = rng.permutation(n) + 1
    return np.outer(p, q).astype(float)


def footrule(rng: np.random.Generator, n: int) -> np.ndarray:
    """Footrule scores a[j, r] = |p_j - q_r| for random rankings p, q of 1..n."""
    p = rng.permutation(n) + 1
    q = rng.permutation(n) + 1
    return np.abs(p[:, None] - q[None, :]).astype(float)


def small_integers(rng: np.random.Generator, n: int) -> np.ndarray:
    """Integers in [-3, 3], redrawn until the statistic is not constant."""
    while True:
        a = rng.integers(-3, 4, (n, n)).astype(float)
        if sigma2_of(a) > 0.0:
            return a


def complex_uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


def sigma2_of(a: np.ndarray) -> float:
    """Variance of S = sum_j a[j, pi(j)]: sum of the doubly centered squares / (n - 1)."""
    at = a - a.mean(axis=0)[None, :] - a.mean(axis=1)[:, None] + a.mean()
    return float((at * at).sum() / (a.shape[0] - 1))


def mu_of(a: np.ndarray) -> float:
    return float(a.shape[0] * a.mean())


# ---------------------------------------------------------------------------
# file writers (full float precision, so the program reads the exact inputs)


def _num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() and abs(x) < 2**53 else repr(float(x))


def write_csv(path: Path, a: np.ndarray) -> None:
    path.write_text("".join(",".join(_num(x) for x in row) + "\n" for row in a))


def write_json(path: Path, a: np.ndarray) -> None:
    path.write_text(json.dumps({"a": [[float(x) for x in row] for row in a]}))


def write_complex(path: Path, y: np.ndarray) -> None:
    path.write_text(
        json.dumps(
            {
                "re": [[float(x) for x in row] for row in y.real],
                "im": [[float(x) for x in row] for row in y.imag],
            }
        )
    )


def read_matrix(path: str) -> np.ndarray:
    """Independent reader of the generated files, used by the checker."""
    text = Path(path).read_text()
    if path.endswith(".json"):
        obj = json.loads(text)
        if "re" in obj:
            return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)
        return np.array(obj["a"], dtype=float)
    return np.array([[float(x) for x in line.split(",")] for line in text.splitlines() if line.strip()])


# ---------------------------------------------------------------------------
# job lists


class _JobBuilder:
    """Collects the jobs of one workload and writes their input files."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.outputs.mkdir(parents=True, exist_ok=True)
        self.jobs: list[dict] = []

    def rng(self, anchor: bool) -> np.random.Generator:
        slot = len(self.jobs)
        head = ANCHOR_SEED if anchor else self.seed
        return np.random.default_rng([head, _WORKLOAD_TAG[self.workload], slot])

    def name(self, label: str, anchor: bool) -> str:
        return f"{len(self.jobs):02d}-{label}" + ("-anchor" if anchor else "")

    def matrix_file(self, name: str, a: np.ndarray, fmt: str) -> str:
        path = self.inputs / f"{name}.{fmt}"
        if np.iscomplexobj(a):
            write_complex(path, a)
        elif fmt == "json":
            write_json(path, a)
        else:
            write_csv(path, a)
        return str(path)

    def cli(self, label: str, anchor: bool, command: list[str], check: dict, extra: list[str] = (),
            threads: int = THREADS):
        name = self.name(label, anchor)
        out = str(self.outputs / f"{name}.json")
        argv = command + list(extra) + ["--threads", str(threads), "--output", out]
        self.jobs.append(
            {"name": name, "kind": "cli", "argv": argv, "output": out, "anchor": anchor, "check": check}
        )

    def bound(self, label: str, a: np.ndarray, anchor: bool = False, fmt: str = "csv"):
        path = self.matrix_file(self.name(label, anchor), a, fmt)
        check = {"type": "bound", "n": a.shape[0], "input": path, "mc_samples": MC_SAMPLES}
        self.cli(label, anchor, ["bound", "--input", path], check, ["--seed", str(self.seed)])

    def sample(self, label: str, values: np.ndarray, m_draw: int, anchor: bool = False):
        vals = ",".join(repr(float(v)) for v in values)
        check = {"type": "sample", "n": values.size, "values": [float(v) for v in values], "m_draw": m_draw}
        self.cli(label, anchor, ["sample", f"--values={vals}", "--m-draw", str(m_draw)], check)

    def charfn(self, label: str, a: np.ndarray, t_max_sigma: float, count: int, anchor: bool = False):
        path = self.matrix_file(self.name(label, anchor), a, "csv")
        sigma = math.sqrt(sigma2_of(a))
        start = stop = t_max_sigma / sigma
        if count > 1:
            start = 0.0
        grid = f"{start!r}:{stop!r}:{count}"
        check = {"type": "charfn", "n": a.shape[0], "input": path, "t_grid": [start, stop, count]}
        self.cli(label, anchor, ["charfn", "--input", path, f"--t-grid={grid}"], check)

    def verify(self, label: str, suite: str = "all"):
        # One thread: with --threads 2 the two check threads contend for the
        # GIL; on a 2-vCPU Xeon `verify all` then swings between 2.5 and 4.1 s
        # from run to run (workload spread 0.29 over ten seeds), too wide for
        # any allowed bound.
        check = {"type": "verify", "suite": suite, "seed": self.seed}
        self.cli(label, False, ["verify", suite], check, ["--seed", str(self.seed)], threads=1)

    def identity(self, label: str, y: np.ndarray, anchor: bool = False):
        name = self.name(label, anchor)
        path = self.matrix_file(name, y, "json")
        check = {"type": "identity", "n": y.shape[0], "input": path, "tol": IDENTITY_TOL}
        self.jobs.append({"name": name, "kind": "identity", "input": path, "tol": IDENTITY_TOL,
                          "anchor": anchor, "check": check})

    def smoothing(self, label: str, a: np.ndarray, t_sigma: float, anchor: bool = False):
        name = self.name(label, anchor)
        path = self.matrix_file(name, a, "csv")
        cutoff = t_sigma / math.sqrt(sigma2_of(a))
        check = {"type": "smoothing", "n": a.shape[0], "input": path, "w": SMOOTHING_W, "T": cutoff}
        self.jobs.append({"name": name, "kind": "smoothing", "input": path, "w": SMOOTHING_W, "T": cutoff,
                          "tol": SMOOTHING_TOL, "anchor": anchor, "check": check})


def _bound_exact(b: _JobBuilder) -> None:
    b.bound("n9-gauss1", gaussian(b.rng(True), 9), anchor=True)
    b.bound("n9-gauss0.1", gaussian(b.rng(False), 9, 0.1))
    b.bound("n9-gauss10", gaussian(b.rng(False), 9, 10.0), fmt="json")
    b.bound("n9-footrule", footrule(b.rng(False), 9))
    b.bound("n9-int", small_integers(b.rng(False), 9))
    b.bound("n9-spearman", spearman(b.rng(False), 9))
    b.bound("n10-gauss1", gaussian(b.rng(False), 10))


def _bound_large(b: _JobBuilder) -> None:
    b.bound("n30-gauss", gaussian(b.rng(True), 30), anchor=True)
    b.bound("n45-gauss", gaussian(b.rng(False), 45), fmt="json")
    b.bound("n60-gauss", gaussian(b.rng(False), 60))
    b.sample("n40-sample", np.round(b.rng(True).standard_normal(40), 6), 13, anchor=True)
    b.sample("n60-sample", np.round(b.rng(False).standard_normal(60), 6), 30)


def _charfn_grid(b: _JobBuilder) -> None:
    b.charfn("n14-gauss", gaussian(b.rng(True), 14), 6.0, 25, anchor=True)
    b.charfn("n16-int", small_integers(b.rng(False), 16), 6.0, 25)
    b.charfn("n18-gauss", gaussian(b.rng(False), 18), 6.0, 25)
    rng = b.rng(False)
    # n = 18, not the --perm-cap limit 20: one n = 20 permanent takes 4.5-6 s
    # here (n = 19 about 2.8 s), and rounds that long leave too few rounds per
    # run for a steady median.
    b.charfn("n18-gauss-1t", gaussian(rng, 18), float(rng.uniform(0.5, 3.0)), 1)


def _verify_oracles(b: _JobBuilder) -> None:
    b.verify("verify-all")
    b.identity("n5-complex", complex_uniform(b.rng(True), 5), anchor=True)
    b.identity("n6-complex", complex_uniform(b.rng(False), 6))
    anchor8 = gaussian(b.rng(True), 8)
    b.smoothing("n8-T2", anchor8, 2.0, anchor=True)
    b.smoothing("n8-T10", anchor8, 10.0, anchor=True)
    for n in (10, 12):
        a = gaussian(b.rng(False), n)
        b.smoothing(f"n{n}-T2", a, 2.0)
        b.smoothing(f"n{n}-T10", a, 10.0)


_BUILDERS = {
    "bound-exact": _bound_exact,
    "bound-large": _bound_large,
    "charfn-grid": _charfn_grid,
    "verify-oracles": _verify_oracles,
}


def build_jobs(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the inputs of ``workload`` under ``workdir`` and return its job list."""
    if not 0 <= seed < ANCHOR_SEED:
        raise ValueError(f"--seed must lie in [0, 2**63), got {seed}")
    b = _JobBuilder(workload, seed, Path(workdir))
    _BUILDERS[workload](b)
    return b.jobs


def build_warmups(workload: str, workdir: Path) -> list[dict]:
    """One n = 4 job per command the workload uses (lazy set-up, untimed)."""
    b = _JobBuilder(workload, 0, Path(workdir) / "warmup")
    rng = np.random.default_rng(4)
    if workload in ("bound-exact", "bound-large"):
        b.bound("warm-bound", gaussian(rng, 4))
    if workload == "bound-large":
        b.sample("warm-sample", np.arange(4.0), 2)
    if workload == "charfn-grid":
        b.charfn("warm-charfn", gaussian(rng, 4), 6.0, 25)
    if workload == "verify-oracles":
        b.verify("warm-verify", "bounds")
        b.identity("warm-identity", complex_uniform(rng, 4))
        b.smoothing("warm-smoothing", gaussian(rng, 4), 2.0)
    return b.jobs


# ---------------------------------------------------------------------------
# memory guard


def job_sizes(job: dict) -> tuple[str, int]:
    check = job["check"]
    return check["type"], int(check.get("n", 0))


def estimated_bytes(job: dict) -> int:
    """Rough peak footprint of one job.

    ``GammaProfile`` holds the n^4 second-difference tensor plus flattened
    gathers of it while it is built: about eight n^4 float64 arrays (820 MB
    measured at n = 60).  The Monte Carlo path adds, per worker thread, three
    batch-sized (2^18 x n) arrays of 8-byte entries while the profile's two
    flattened arrays stay alive.
    """
    kind, n = job_sizes(job)
    if kind in ("verify", "identity"):
        return 0
    quartic = 8 * n**4
    profile = 8 * quartic
    if kind == "bound" and n > 10:
        return max(profile, 2 * quartic + THREADS * 3 * (1 << 18) * n * 8)
    return profile


def available_bytes() -> int | None:
    """MemAvailable, capped by the cgroup limit when one is set."""
    avail = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                avail = int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        limit = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        used = int(Path("/sys/fs/cgroup/memory.current").read_text().strip())
        if limit != "max":
            room = int(limit) - used
            avail = room if avail is None else min(avail, room)
    except (OSError, ValueError):
        pass
    return avail


def memory_guard(jobs: list[dict], available: int | None) -> str | None:
    """Return a refusal message if a job would need more than half of ``available``."""
    if available is None:
        return None
    for job in jobs:
        need = estimated_bytes(job)
        if need > available / 2:
            kind, n = job_sizes(job)
            return (
                f"refusing to run: job {job['name']} ({kind}, n = {n}) needs about {need / 1e6:.0f} MB "
                f"(GammaProfile holds ~8 n^4 float64 arrays), more than half of the "
                f"{available / 1e6:.0f} MB available"
            )
    return None
