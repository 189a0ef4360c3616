"""Exact and Monte Carlo distribution of the standardized permutation statistic.

``enumerate_distribution`` walks all n! permutations and returns the exact
law of S* = (S - mu)/sigma as a list of atoms with rational weights k/n!.
The values of S are the row sums of the ``perm_rows`` blocks, written into
one n! array and sorted in place.
The Kolmogorov distance to the standard normal,

    Delta = sup_x | P(S* <= x) - Phi(x) |,

is then computed exactly by checking the step CDF only at the atoms from the
left and from the right: because Phi is continuous and strictly increasing,
the supremum is attained at a jump.  One private scan, ``_ks_sup``, finds
that maximum for the exact law and for the Monte Carlo sample alike, and it
evaluates Phi only where the maximum can lie.  Phi is taken exactly at every
``_KS_BLOCK``-th atom and at the last one.  Between two such atoms a < b, F
is non-decreasing and Phi increasing, so no deviation exceeds
max(F(x_{b-1}) - Phi(x_a), Phi(x_b) - F(x_a)); in the gaps where that can
reach the running maximum, the mean value theorem, with the normal density
bounded at the gap's ends (and at 0 when the gap holds it), bounds each atom
alone.  Phi is evaluated at every atom whose bound comes within
``_KS_SLACK`` = 1e-15 of the running maximum, a margin above the few-ulp
rounding of ``ndtr`` and of the bounds, so the maximum and the first atom
attaining it are those of a scan of every atom, bit for bit.

A seeded Monte Carlo fallback covers matrices above the enumeration cap; it
is deterministic for a fixed seed and thread-count independent (the sample
is assembled from a fixed batch layout of spawned substreams).
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
# ``_ks_sup`` evaluates Phi at every _KS_BLOCK-th atom and bounds the atoms
# between them; the per-atom bounds run over chunks of about _KS_CHUNK atoms.
_KS_BLOCK = 128
_KS_CHUNK = 1 << 16
# An atom is skipped only when its bound falls this far below the running
# maximum: ndtr and the rounding of the bounds are each off by a few 1e-16.
_KS_SLACK = 1e-15
# Relative widening of the density bounds, far above the error of exp.
_PDF_WIDEN = 1e-12
_PDF_AT_ZERO = 1.0 / math.sqrt(2.0 * math.pi)


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
    """Standard normal CDF, the ``ndtr`` of the Kolmogorov scan at one point."""
    if not math.isfinite(x):
        raise ParameterError(f"x must be finite, got {x}")
    return float(ndtr(x))


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


def _ks_sup(x: np.ndarray, cum: np.ndarray | None = None) -> tuple[float, int]:
    """max_i max(|F_i - Phi(x_i)|, |F_{i-1} - Phi(x_i)|) over the sorted x,
    and the lowest index attaining it.

    With ``cum`` the cumulative counts, F_i = cum_i/cum_{N-1} and the left
    value is F_{i-1} (0 at the first atom); without it F_i = (i+1)/N and the
    left value is (i+1)/N - 1/N, the empirical CDF of N sample points.  Both
    are evaluated by the same floating-point operations at every atom, so
    the result is that of a scan of every atom; Phi is ``ndtr``, taken only
    at the atoms the bounds of the module docstring cannot rule out.  Apart
    from its inputs the scan holds arrays of N/_KS_BLOCK and of _KS_CHUNK
    values.
    """
    size = x.size
    if cum is None:
        step = 1.0 / size

        def right(i):
            return (i + 1.0) / size

        def left(i):
            return right(i) - step

    else:
        total = float(cum[-1])

        def right(i):
            return cum[i] / total

        def left(i):
            return np.where(i > 0, cum[i - 1], 0) / total

    def deviation(i, phi):
        return np.maximum(np.abs(right(i) - phi), np.abs(left(i) - phi))

    ends = np.arange(0, size, _KS_BLOCK)
    if ends[-1] != size - 1:
        ends = np.append(ends, size - 1)
    phi_ends = ndtr(x[ends])
    dev = deviation(ends, phi_ends)
    k = int(np.argmax(dev))
    best, best_i = float(dev[k]), int(ends[k])

    # Each gap a < b between evaluated atoms, bounded whole.
    a, b = ends[:-1], ends[1:]
    pa, pb = phi_ends[:-1], phi_ends[1:]
    gap = np.maximum(right(b - 1) - pa, pb - left(a + 1))
    live = np.flatnonzero(gap >= best - _KS_SLACK)
    # One row per gap left: its ends, Phi there and the density's extremes between.
    a, b, pa, pb = (v[live, None] for v in (a, b, pa, pb))
    xa, xb = x[a], x[b]
    pdf_a = np.exp(-0.5 * xa * xa) * _PDF_AT_ZERO
    pdf_b = np.exp(-0.5 * xb * xb) * _PDF_AT_ZERO
    pdf_lo = np.minimum(pdf_a, pdf_b) * (1.0 - _PDF_WIDEN)
    pdf_hi = np.where((xa <= 0.0) & (xb >= 0.0), _PDF_AT_ZERO, np.maximum(pdf_a, pdf_b))
    pdf_hi *= 1.0 + _PDF_WIDEN
    inner = np.arange(1, _KS_BLOCK)
    per_chunk = _KS_CHUNK // _KS_BLOCK
    for start in range(0, live.size, per_chunk):
        g = slice(start, start + per_chunk)
        i = a[g] + inner
        inside = i < b[g]
        np.minimum(i, b[g] - 1, out=i)
        xi = x[i]
        # Phi(x_i) lies between Phi(x_a) + pdf * (x_i - x_a) and
        # Phi(x_b) - pdf * (x_b - x_i) for the density's extremes on [x_a, x_b].
        dl = xi - xa[g]
        dr = xb[g] - xi
        lo = np.maximum(pa[g] + pdf_lo[g] * dl, pb[g] - pdf_hi[g] * dr)
        hi = np.minimum(pa[g] + pdf_hi[g] * dl, pb[g] - pdf_lo[g] * dr)
        bound = np.maximum(right(i) - lo, hi - left(i))
        cand = i[inside & (bound >= best - _KS_SLACK)]
        if cand.size == 0:
            continue
        dev = deviation(cand, ndtr(x[cand]))
        k = int(np.argmax(dev))
        if dev[k] > best or (dev[k] == best and cand[k] < best_i):
            best, best_i = float(dev[k]), int(cand[k])
    return best, best_i


def kolmogorov_distance(d: AtomDistribution) -> DeltaReport:
    """Exact sup-distance between the atom CDF and the standard normal.

    The maximum of max(|F(x) - Phi(x)|, |F(x-) - Phi(x)|) over the atoms x,
    which equals the full supremum because Phi is continuous and increasing
    while F only moves at atoms.  ``_ks_sup`` finds it while evaluating Phi
    at about 1% of the atoms: the rest are ruled out by bounds that follow
    from the monotonicity of F and Phi and from the mean value theorem (see
    the module docstring), and the value and the first atom attaining it are
    those of a scan of every atom, bit for bit.
    """
    delta, i = _ks_sup(d.values, np.cumsum(d.counts))
    return DeltaReport(
        delta=delta,
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
    sign.  Delta is the largest gap between the empirical CDF, i/N just after
    the i-th sorted sample and (i-1)/N just before it, and Phi, found by
    ``_ks_sup``: Phi is evaluated at about 1% of the samples, and the value
    and ``arg_x`` are those of a scan of every sample, bit for bit.
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
    delta, i = _ks_sup(s)
    return DeltaReport(
        delta=delta,
        arg_x=float(s[i]),
        method="monte-carlo",
        std_error=0.5 / math.sqrt(samples),
        n=n,
        atoms_count=None,
    )
