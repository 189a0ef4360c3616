"""Exact and Monte Carlo distribution of the standardized permutation statistic.

``enumerate_distribution`` walks all n! permutations and returns the exact
law of S* = (S - mu)/sigma as a list of atoms with rational weights k/n!.
The values of S are the row sums of the ``perm_rows`` blocks, written into
one n! array and sorted in place.
The Kolmogorov distance to the standard normal,

    Delta = sup_x | P(S* <= x) - Phi(x) |,

is then computed exactly by checking the step CDF only at the atoms from the
left and from the right: because Phi is continuous and strictly increasing,
the supremum is attained at a jump.  A seeded Monte Carlo fallback covers
matrices above the enumeration cap; it is deterministic for a fixed seed and
thread-count independent (the sample is assembled from a fixed batch layout
of spawned substreams).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import CapExceededError, InvalidMatrixError, ParameterError
from .permtables import perm_rows
from .scores import GammaProfile, ScoreMatrix, _as_profile, require_nondegenerate

_MERGE_RTOL = 1e-12
_MC_BATCH = 1 << 18
# Elements (rows x n) permuted and gathered at a time inside one batch: 4 MB
# for the index buffer and 4 MB for the gathered values, so a batch's memory
# stays about 8 MB per thread for any n, while small calls (up to 2^19
# elements, such as 1e5 samples at n = 5) run as one chunk.
_MC_CHUNK = 1 << 19


@dataclass(frozen=True)
class AtomDistribution:
    """Exact law of the (standardized) statistic as sorted weighted atoms.

    ``values`` are strictly increasing; ``counts`` are the integer
    multiplicities out of n! permutations, so every probability is exactly
    counts[i]/n!.
    """

    values: np.ndarray
    counts: np.ndarray
    n: int
    standardized: bool = True

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        counts = np.asarray(self.counts, dtype=np.int64)
        if values.ndim != 1 or counts.shape != values.shape:
            raise InvalidMatrixError("values and counts must be matching 1-D arrays")
        if values.size == 0:
            raise InvalidMatrixError("empty atom list")
        if np.any(np.diff(values) <= 0):
            raise InvalidMatrixError("atom values must be strictly increasing")
        if np.any(counts <= 0):
            raise InvalidMatrixError("atom counts must be positive")
        total = math.factorial(self.n)
        if int(counts.sum()) != total:
            raise InvalidMatrixError(f"atom counts must sum to n! = {total}")
        values.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @property
    def probs(self) -> np.ndarray:
        return self.counts / math.factorial(self.n)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return list(zip(self.values.tolist(), self.probs.tolist()))


@dataclass(frozen=True)
class DeltaReport:
    """Kolmogorov distance to the standard normal plus provenance.

    ``arg_x`` is a point attaining the supremum (an atom in exact mode, a
    sample point in Monte Carlo mode).  ``std_error`` carries the
    1/(2*sqrt(samples)) scale for Monte Carlo estimates and is None for
    exact evaluations.
    """

    delta: float
    arg_x: float
    method: str
    std_error: float | None
    n: int
    atoms_count: int | None

    def as_dict(self) -> dict:
        return {
            "delta": float(self.delta),
            "arg_x": float(self.arg_x),
            "method": self.method,
            "std_error": None if self.std_error is None else float(self.std_error),
            "n": self.n,
            "atoms_count": self.atoms_count,
        }


def normal_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Absolute error is at the few-ulp level of the underlying erfc (well below
    1e-14 everywhere).
    """
    if not math.isfinite(x):
        raise ParameterError(f"x must be finite, got {x}")
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _statistic_values(m: ScoreMatrix) -> np.ndarray:
    """The n! values of S in ``perm_rows`` order, each a contiguous row sum."""
    values = np.empty(math.factorial(m.n))
    start = 0
    for rows in perm_rows(m.a):
        rows.sum(axis=1, out=values[start : start + len(rows)])
        start += len(rows)
    return values


def enumerate_distribution(m: ScoreMatrix | GammaProfile, enum_cap: int = 10) -> AtomDistribution:
    """Exact law of S* by full enumeration of the n! permutations.

    Values agreeing to within 1e-12 of the statistic scale are merged into a
    single atom before standardization, which prevents floating-point noise
    from fragmenting genuinely equal outcomes while keeping the k/n! weights
    exact.  The n! values are sorted in place by numpy's default (unstable)
    sort: equal floats are interchangeable and a run of signed zeros sums to
    the same value in any order, so the atoms do not depend on the order
    the sort leaves ties in.
    """
    n = m.n
    if n > enum_cap:
        raise CapExceededError(
            f"n = {n} exceeds the enumeration cap {enum_cap}; use monte_carlo_delta instead"
        )
    profile = _as_profile(m)
    stats = profile.stats
    require_nondegenerate(stats)
    s = _statistic_values(profile.matrix)
    s.sort()
    scale = float(max(abs(s[0]), abs(s[-1]), 1e-300))
    is_start = np.empty(s.size, dtype=bool)
    is_start[0] = True
    np.greater(np.diff(s), _MERGE_RTOL * scale, out=is_start[1:])
    starts = np.flatnonzero(is_start)
    values = np.add.reduceat(s, starts)
    # Free the n! values before the counts are built: peak memory stays at
    # three value-sized arrays.
    del s, is_start
    counts = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = math.factorial(n) - starts[-1]
    del starts
    # In place, in the order of (sums / counts - mu) / sigma, so every value
    # rounds as that expression does.
    values /= counts
    values -= stats.mu
    values /= math.sqrt(stats.sigma2)
    return AtomDistribution(values=values, counts=counts, n=n, standardized=True)


def kolmogorov_distance(d: AtomDistribution) -> DeltaReport:
    """Exact sup-distance between the atom CDF and the standard normal.

    Evaluates max(|F(x) - Phi(x)|, |F(x-) - Phi(x)|) over the atoms x, which
    equals the full supremum because Phi is continuous and increasing while F
    only moves at atoms.
    """
    cum = np.cumsum(d.counts)
    f = cum / float(cum[-1])
    del cum
    phi = ndtr(d.values)
    dev = np.subtract(f, phi)
    np.abs(dev, out=dev)
    # F(x-) is F at the previous atom (0 at the first): overwrite phi with
    # the left deviations.
    np.subtract(f[:-1], phi[1:], out=phi[1:])
    phi[0] = -phi[0]
    np.abs(phi, out=phi)
    np.maximum(dev, phi, out=dev)
    i = int(np.argmax(dev))
    return DeltaReport(
        delta=float(dev[i]),
        arg_x=float(d.values[i]),
        method="exact",
        std_error=None,
        n=d.n,
        atoms_count=int(d.values.size),
    )


def _mc_batch_layout(samples: int) -> list[int]:
    sizes = [_MC_BATCH] * (samples // _MC_BATCH)
    if samples % _MC_BATCH:
        sizes.append(samples % _MC_BATCH)
    return sizes


def monte_carlo_delta(
    m: ScoreMatrix | GammaProfile,
    samples: int,
    seed: int,
    threads: int = 1,
) -> DeltaReport:
    """Monte Carlo estimate of the Kolmogorov distance to the normal.

    Each batch shuffles its own rows with an independently seeded generator
    spawned deterministically from ``seed``; the batch layout depends only on
    ``samples``, so results are identical for any ``threads`` value.  A batch
    fills its slice of one sample array in consecutive row chunks of about
    ``_MC_CHUNK`` elements, through one reused index buffer, so its memory
    does not grow with n; the chunking leaves every sample unchanged.  With
    the matrix stored column by column, each buffer row starts as the column
    offsets r * n, is shuffled in place and has j added, and one flat
    ``take`` reads a[j, pi(j)]: every sample equals the row sum of the gather
    ``a[rows, rng.permuted(tile(rows), axis=1)]``, bit for bit.  The
    reported ``std_error`` is the 1/(2*sqrt(samples)) empirical-CDF scale.
    The standardized samples are sorted by numpy's default (unstable) sort,
    which leaves equal samples in any order; the only visible effect is the
    sign of ``arg_x`` when it is a zero that ties with a zero of the other
    sign.
    """
    if samples < 10_000:
        raise ParameterError(f"samples must be at least 10000, got {samples}")
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    profile = _as_profile(m)
    stats = profile.stats
    sigma = math.sqrt(require_nondegenerate(stats))
    n = profile.n
    # a[j, r] sits at r * n + j: one flat index per drawn entry.
    a_cols = np.ascontiguousarray(profile.matrix.a.T).ravel()
    cols = np.arange(n)
    offsets = cols * n
    layout = _mc_batch_layout(samples)
    seeds = np.random.SeedSequence(seed).spawn(len(layout))
    chunk_rows = max(1, _MC_CHUNK // n)
    s = np.empty(samples)

    def run_batch(args):
        ss, first, size = args
        rng = np.random.default_rng(ss)
        buf = np.empty((min(size, chunk_rows), n), dtype=np.intp)
        for start in range(0, size, chunk_rows):
            stop = min(size, start + chunk_rows)
            # The swaps depend only on the row length and the generator, so
            # the offsets move as range(n) would and consecutive chunks draw
            # as one whole-batch call; ``take`` returns the C-contiguous
            # layout of a fancy-index gather, so each row sum rounds the same.
            block = buf[: stop - start]
            block[...] = offsets
            rng.permuted(block, axis=1, out=block)
            block += cols
            a_cols.take(block).sum(axis=1, out=s[first + start : first + stop])

    jobs = list(zip(seeds, range(0, samples, _MC_BATCH), layout))
    if threads == 1:
        for job in jobs:
            run_batch(job)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_batch, jobs))
    s -= stats.mu
    s /= sigma
    s.sort()
    total = s.size
    phi = ndtr(s)
    grid = np.arange(1, total + 1, dtype=float)
    grid /= total
    dev = np.subtract(grid, phi)
    np.abs(dev, out=dev)
    grid -= 1.0 / total
    grid -= phi
    np.abs(grid, out=grid)
    np.maximum(dev, grid, out=dev)
    i = int(np.argmax(dev))
    return DeltaReport(
        delta=float(dev[i]),
        arg_x=float(s[i]),
        method="monte-carlo",
        std_error=0.5 / math.sqrt(samples),
        n=n,
        atoms_count=None,
    )
