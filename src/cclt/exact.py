"""Exact and Monte Carlo distribution of the standardized permutation statistic.

``enumerate_distribution`` walks all n! permutations and returns the exact
law of S* = (S - mu)/sigma as an ``AtomDistribution``: the sorted atom
values with their cumulative counts out of n!, so every weight is an exact
k/n!.  The values of S, each rounded as numpy's row sum of a[j, pi(j)], with
partial sums shared between permutations, fill one n! array, sorted in
place.  Equal values are then merged in place, chunk by chunk: a chunk
ends at the first run start past ``_ATOM_CHUNK`` values, so no run is split,
and its atoms overwrite the front of the same array while its run ends go
into one cumulative-count array of the smallest unsigned type that holds
n!.  A chunk with no ties skips the merge: its values are its atoms.  A law
of at most ``_ATOM_CHUNK`` atoms is then copied out of the two arrays.  At
n = 10 the enumeration peaks at 45 MB under tracemalloc (the 29 MB of
values, 14.5 MB of uint32 counts and the chunk temporaries).  The
Kolmogorov distance to the standard normal,

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

Phi is ``ndtr``, Cephes' ``ndtr`` with its ``erf`` and ``erfc`` written in
numpy, equal to ``scipy.special.ndtr`` bit for bit on the same libm.  Only
``monte_carlo_delta`` imports scipy, and only before it samples on two or
more threads: two threads were measured slower without the import, one
thread showed no gap.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import combinations

import numpy as np

from .errors import CapExceededError, InvalidMatrixError, ParameterError, _finite, _integer, _seed, _thread_count
from .permtables import ENUM_CAP, _table
from .scores import GammaProfile, ScoreMatrix, _as_profile, require_nondegenerate

_MERGE_RTOL = 1e-12
# Byte budget for an enumeration's peak, the n! float64 values and their
# cumulative counts (uint32 from n = 9): n = 11 needs 0.48 GB, n = 12 5.7 GB.
# Monte Carlo's float64 sample array is held to it as well (2.7e8 samples).
_ENUM_BYTES = 1 << 31
# Sorted values merged, and atoms checked, per chunk of the exact law.
_ATOM_CHUNK = 1 << 16
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
    """Exact law of the standardized statistic as sorted atoms and cumulative counts.

    ``values`` are strictly increasing, so no value repeats, not even an
    infinity; ``cum_counts`` are the cumulative integer multiplicities out
    of n! permutations, ending at n!, so P(S* <= values[i]) is exactly
    cum_counts[i]/n!.  ``counts`` (int64) and ``probs`` are derived from
    them.  A float64 ``values`` array and an integer ``cum_counts`` array
    are kept as given, not copied, and marked read-only in place, so the
    caller's own arrays turn read-only too, and a write through another view
    of their memory would change the law past its checks; anything else is
    converted to float64 and int64.  The law is checked per chunk of ``_ATOM_CHUNK``
    atoms (values strictly increasing, cumulative counts strictly
    increasing from above 0, total n!), each chunk after the first starting
    at the last atom of the one before, so no check builds an array as long
    as the law and no neighbouring pair goes unchecked.  The exact enumeration
    hands over views of the front of its n! value buffer and of its
    cumulative-count buffer, whose unsigned type is the smallest that holds
    n! (uint32 for n = 9-12), or, for a law of at most ``_ATOM_CHUNK``
    atoms, copies of the atoms alone.  A Gaussian 10 x 10 law (3.6M atoms)
    holds 29 MB of values and 14.5 MB of counts, the bulk of the
    enumeration's 45 MB peak; a Spearman 10 x 10 law (166 atoms) holds 2 kB.
    """

    values: np.ndarray
    cum_counts: np.ndarray
    n: int

    def __post_init__(self):
        values, cum = np.asarray(self.values, dtype=float), np.asarray(self.cum_counts)
        if cum.dtype.kind not in "iu":
            cum = cum.astype(np.int64)
        if values.ndim != 1 or cum.shape != values.shape:
            raise InvalidMatrixError("values and counts must be matching 1-D arrays")
        if values.size == 0:
            raise InvalidMatrixError("empty atom list")
        for lo in range(0, values.size, _ATOM_CHUNK):
            seam = max(lo - 1, 0)
            v = values[seam : lo + _ATOM_CHUNK]
            if (v[1:] <= v[:-1]).any():
                raise InvalidMatrixError("atom values must be strictly increasing")
            c = cum[seam : lo + _ATOM_CHUNK]
            if c[0] <= 0 or (c[1:] <= c[:-1]).any():
                raise InvalidMatrixError("atom counts must be positive")
        total = math.factorial(self.n)
        if int(cum[-1]) != total:
            raise InvalidMatrixError(f"atom counts must sum to n! = {total}")
        values.setflags(write=False)
        cum.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cum_counts", cum)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.cum_counts.astype(np.int64), prepend=0)

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
        return asdict(self)


# Cephes' ndtr, erf and erfc constants (polevl order, leading coefficient
# first; for p1evl a leading 1 is implied).  sqrt(1/2) is Cephes' literal:
# 1 / math.sqrt(2) is one ulp lower.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
# Any z at or above this has -z^2 < -MAXLOG, so erfc(z) = 0; larger z are
# clipped to it before they are squared, which keeps z^2 finite.
_ERFC_ZERO = 27.0


def _horner(x: np.ndarray, coef: tuple, monic: bool) -> np.ndarray:
    """Cephes' ``polevl`` (``monic`` False) or ``p1evl`` (a leading 1 implied)
    at x: y = y*x + c, each product and sum rounded on its own, as the
    original is compiled without FMA."""
    y = x + coef[0] if monic else x * coef[0] + coef[1]
    for c in coef[1 if monic else 2 :]:
        y *= x
        y += c
    return y


def ndtr(a: np.ndarray) -> np.ndarray:
    """Phi at each point of the 1-D ``a``: Cephes' ``ndtr`` with its ``erf`` and ``erfc``, in numpy.

    It equals ``scipy.special.ndtr``, which is the same C code, bit for bit
    on the same libm.  With x = a*sqrt(1/2) and z = |x|:

    * z < 1: 0.5 + 0.5*erf(x), erf(x) = x*T(x^2)/U(x^2).  Cephes takes this
      only for z < sqrt(1/2); for z in [sqrt(1/2), 1) it takes 0.5*(1 -
      erf(z)), flipped to 1 - y for x > 0.  There erf(z) lies in [0.68, 0.85],
      so 1 - erf(z) and its half are exact (Sterbenz) and both routes round
      the same real number once: one formula serves both.
    * z >= 1: y = 0.5*erfc(z), flipped to 1 - y for x > 0, with erfc(z) =
      exp(-z^2)*P(z)/Q(z) below z = 8, exp(-z^2)*R(z)/S(z) from 8 on, and 0
      once -z^2 < -MAXLOG.  exp is libm's, through ``math.exp`` one point at
      a time (numpy's own exp can differ from it by a few ulp).

    Every product and sum is its own numpy ufunc, so each rounds as the
    unfused C does.  No finite input warns: z is clipped to 1 before the
    erf polynomial and to ``_ERFC_ZERO`` before it is squared.  NaN gives
    NaN, -inf 0 and +inf 1, as scipy's.
    """
    x = a * _SQRT1_2
    y = np.clip(x, -1.0, 1.0)
    x2 = y * y
    y *= _horner(x2, _ERF_T, False)
    y /= _horner(x2, _ERF_U, True)
    y *= 0.5
    y += 0.5
    z = np.abs(x)
    tail = np.flatnonzero(~(z < 1.0))
    if tail.size:
        zt = np.minimum(z[tail], _ERFC_ZERO)
        w = zt * zt
        np.negative(w, out=w)
        e = np.fromiter(map(math.exp, w.tolist()), dtype=float, count=w.size)
        e[w < -_MAXLOG] = 0.0
        near = zt < 8.0
        for part, num, den in ((near, _ERFC_P, _ERFC_Q), (~near, _ERFC_R, _ERFC_S)):
            if part.any():
                zp = zt[part]
                ep = e[part]
                ep *= _horner(zp, num, False)
                ep /= _horner(zp, den, True)
                e[part] = ep
        e *= 0.5
        np.subtract(1.0, e, out=e, where=x[tail] > 0.0)
        y[tail] = e
    return y


def normal_cdf(x: float) -> float:
    """Standard normal CDF, the ``ndtr`` of the Kolmogorov scan at one point."""
    _finite(x, "x")
    return float(ndtr(np.array([x]))[0])


def _statistic_values(m: ScoreMatrix) -> np.ndarray:
    """The n! values of S in no set order, each rounded as numpy's row sum of
    a[j, pi(j)] for n < 16: +0.0 plus a left fold from +0.0 below n = 8, and
    from n = 8 on ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7)), then a8,
    a9, ... one at a time.  Each quad of rows 0-3 and 4-7 is taken once per
    ordered choice of four columns; each pair of disjoint column sets adds its
    24 x 24 quads into the output once per order of the columns left, and the
    rows from 8 on (below n = 8, all rows) are then added in place.
    """
    a, n = m.a, m.n
    if n < 8:
        k, left, right, rest = 0, np.zeros((1, 1)), np.zeros((1, 1)), np.arange(n)[None, :]
    else:
        k = 8
        quads = np.array(list(combinations(range(n), 4)))
        c0, c1, c2, c3 = quads[:, _table(4)].transpose(2, 0, 1)

        def quad(r):
            return (a[r, c0] + a[r + 1, c1]) + (a[r + 2, c2] + a[r + 3, c3])

        # Column sets as bit masks: the pairs of disjoint 4-sets, and the
        # columns each pair leaves to the tail rows, in increasing order.
        masks = (1 << quads).sum(axis=1)
        lo, hi = np.nonzero((masks[:, None] & masks) == 0)
        left, right = quad(0)[lo], quad(4)[hi]
        free = ((1 << n) - 1) ^ masks[lo] ^ masks[hi]
        rest = np.nonzero((free[:, None] >> np.arange(n)) & 1)[1].reshape(lo.size, n - k)
    tails = rest[:, _table(n - k)]
    out = np.empty((len(rest), tails.shape[1], left.shape[1], right.shape[1]))
    np.add(left[:, None, :, None], right[:, None, None, :], out=out)
    for r in range(k, n):
        out += a[r, tails[..., r - k]][:, :, None, None]
    out += 0.0
    return out.ravel()


def _run_start(s: np.ndarray, i: int, tol: float) -> int:
    """The first index j >= i (i >= 1) at which a run of the sorted ``s``
    starts, s[j] - s[j-1] > tol, or s.size: windows from 1 to
    ``_ATOM_CHUNK`` pairs, doubling while no run starts."""
    width = 1
    while i < s.size:
        w = s[i - 1 : i + width]
        hit = (w[1:] - w[:-1] > tol).nonzero()[0]
        if hit.size:
            return i + int(hit[0])
        i += width
        width = min(2 * width, _ATOM_CHUNK)
    return s.size


def enumerate_distribution(m: ScoreMatrix | GammaProfile, enum_cap: int = ENUM_CAP) -> AtomDistribution:
    """Exact law of S* by full enumeration of the n! permutations.

    Values agreeing to within 1e-12 of the statistic scale are merged into a
    single atom before standardization, which prevents floating-point noise
    from fragmenting genuinely equal outcomes while keeping the k/n! weights
    exact.  The n! values are sorted in place by numpy's default (unstable)
    sort: equal floats are interchangeable and a run of signed zeros sums to
    the same value in any order, so the atoms do not depend on the order
    the sort leaves ties in.

    The law is then built in place, in one pass over chunks of about
    ``_ATOM_CHUNK`` sorted values.  A chunk ends at the first run start at
    or after that length (the seam rule), so no run is split.  A chunk with
    ties goes through ``_merge_runs``, which sums each run by
    ``np.add.reduceat`` as one segment, as over the whole array, and divides
    it by its count.  A chunk with no ties, where every value starts a run
    and the last run ends at the chunk's end, skips it: a one-value segment
    sums to the value itself and x / 1 is x, signed zeros and infinities
    included, so its values are its atoms, bit for bit (on Gaussian input
    nearly every chunk).  The chunk's atoms, (sum / count - mu) / sigma, go
    into the front of the same buffer, which the pass has already read, and
    its run ends into one cumulative-count array of the smallest unsigned
    type that holds n!.  A law of at most ``_ATOM_CHUNK`` atoms is copied
    out and the two n!-long arrays are freed, so it keeps only its atoms; a
    larger law keeps views of them.  The peak is the n! values plus those
    counts, 12 bytes per permutation for n = 9-12 (about 1.56 n!-long
    float64 arrays at n = 10 under tracemalloc, chunk temporaries included);
    an n above ``enum_cap`` (default ``permtables.ENUM_CAP``), or whose
    values and counts would pass ``_ENUM_BYTES``, raises
    ``CapExceededError`` before any work.
    """
    n = m.n
    if n > enum_cap:
        raise CapExceededError(
            f"n = {n} exceeds the enumeration cap {enum_cap}; use monte_carlo_delta instead"
        )
    total = math.factorial(n)
    cum_type = np.min_scalar_type(total)
    need = (8 + cum_type.itemsize) * total
    if need > _ENUM_BYTES:
        raise CapExceededError(f"n = {n}: enumeration needs {need} bytes, over its {_ENUM_BYTES}-byte budget")
    profile = _as_profile(m)
    sigma = math.sqrt(require_nondegenerate(profile.sigma2))
    s = _statistic_values(profile.matrix)
    s.sort()
    tol = _MERGE_RTOL * float(max(abs(s[0]), abs(s[-1]), 1e-300))
    cum = np.empty(total, dtype=cum_type)
    atoms = lo = 0
    while lo < total:
        # Runs start only in the chunk's first _ATOM_CHUNK values; the last
        # one runs on to hi.
        hi = _run_start(s, lo + _ATOM_CHUNK, tol)
        head = s[lo : lo + _ATOM_CHUNK]
        is_start = np.empty(head.size, dtype=bool)
        is_start[0] = True
        np.greater(head[1:] - head[:-1], tol, out=is_start[1:])
        if hi - lo == head.size and is_start.all():
            # No ties: every value is an atom of count 1, and its one-value
            # sum over 1 is the value itself, bit for bit.
            values, ends = s[lo:hi], np.arange(1, hi - lo + 1)
        else:
            values, ends = _merge_runs(s[lo:hi], is_start)
        # In the order of (sums / counts - mu) / sigma, so every value rounds
        # as that expression does.
        k = values.size
        atom_values = s[atoms : atoms + k]
        np.subtract(values, profile.mu, out=atom_values)
        atom_values /= sigma
        ends += lo
        cum[atoms : atoms + k] = ends
        atoms += k
        lo = hi
        # The next chunk's temporaries do not stack on this one's.
        del head, values, ends, atom_values
    if atoms > _ATOM_CHUNK:
        return AtomDistribution(s[:atoms], cum[:atoms], n)
    # A law of at most _ATOM_CHUNK atoms is copied out, and the n!-long
    # buffers are freed whole.  The values' copy, made while both buffers
    # live, is no larger than each chunk's difference array, so the peak
    # does not rise.  (Shrinking the buffers in place with ``ndarray.resize``
    # split them in the heap: repeated enumerations then grew the process
    # by up to one value buffer each.)
    values = s[:atoms].copy()
    del s
    return AtomDistribution(values, cum[:atoms].copy(), n)


def _merge_runs(chunk: np.ndarray, is_start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean value and end of each run of the sorted ``chunk``, whose runs
    start where ``is_start`` is set, the last one running on to its end:
    each run summed as one ``np.add.reduceat`` segment, then divided by its
    count.  Only chunks with ties come here.
    """
    starts = is_start.nonzero()[0]
    values = np.add.reduceat(chunk, starts)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:]
    ends[-1] = chunk.size
    counts = np.subtract(ends, starts, out=starts)
    values /= counts
    return values, ends


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
    those of a scan of every atom, bit for bit.  F is read straight from the
    stored cumulative counts, F(x_i) = cum_counts[i]/n!, so the scan builds
    no array as long as the law (at n = 10 it allocates under 3 MB).
    """
    delta, i = _ks_sup(d.values, d.cum_counts)
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


def _check_mc_budget(samples: int) -> None:
    """Refuse a Monte Carlo sample whose float64 array would pass ``_ENUM_BYTES``."""
    if 8 * samples > _ENUM_BYTES:
        raise CapExceededError(f"{samples} samples need {8 * samples} bytes, over the {_ENUM_BYTES}-byte budget")


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
    and ``arg_x`` are those of a scan of every sample, bit for bit.  A sample
    array over ``_ENUM_BYTES`` raises ``CapExceededError`` before any work.
    At ``threads`` >= 2 scipy is imported after the argument checks, so the
    sampling threads run with it loaded; one thread samples without it.
    """
    samples = _integer(samples, "samples")
    if samples < 10_000:
        raise ParameterError(f"samples must be at least 10000, got {samples}")
    _check_mc_budget(samples)
    threads = _thread_count(threads)
    seed = _seed(seed)
    if threads > 1:
        # Two threads of ``Generator.permuted`` ran 15-25% slower in a process
        # that had not imported scipy, most likely through where numpy's
        # allocations land rather than through scipy code, so threaded
        # sampling keeps the state it was measured in.  One thread showed no
        # gap with or without the import, so it samples without scipy.
        import scipy.special  # noqa: F401
    profile = _as_profile(m)
    sigma = math.sqrt(require_nondegenerate(profile.sigma2))
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
    s -= profile.mu
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
