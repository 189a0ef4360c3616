"""Score matrices and the second-moment functionals of the permutation statistic.

The object of study is the statistic

    S = sum_j a[j, pi(j)]

for a real n x n score matrix ``a`` (n >= 2) and a uniformly random
permutation ``pi`` of {1, ..., n}.  Everything downstream -- exact
distributions, characteristic-function inequalities, normal-approximation
error bounds -- is driven by a small family of functionals computed here:

* the doubly centered matrix
      at[j, r] = a[j, r] - rowmean[j] - colmean[r] + grandmean,
  whose row and column sums all vanish and which determines the centered
  statistic completely;
* the mean and variance
      mu = n * grandmean,
      sigma2 = sum(at**2) / (n - 1),
  the latter also expressible through the second differences below;
* the second differences over index quadruples
      b[j, k, r, s] = a[j, r] - a[k, r] - a[j, s] + a[k, s],
  antisymmetric in (j, k) and in (r, s), with
      sigma2 = sum_{j!=k, r!=s} b^2 / (4 n^2 (n-1));
* the clipped second-moment profiles that calibrate every error bound,

      gamma(x)       = sum_{j!=k, r!=s} b^2 * min(1, |x b|) / (n^2 (n-1)),
      gamma_tilde(x) = sum_{j, r}      at^2 * min(1, |x at|) / (n - 1),

  together with  delta = sum_{j!=k, r!=s} |b|^3 / (n^2 (n-1)).

For n <= 20 the quadruple sums are evaluated literally, termwise
(vectorised, pairwise-summed), over the quarter table of second differences
with j < k and s < r: b is exactly antisymmetric in each index pair, so each
sum over distinct pairs is 4 times its quarter, exactly.  There they serve as
the trusted oracles of the package, so no algebraic shortcuts are applied.
The table grows as n^4 / 4 (3.1e6 terms, 25 MB per float64 array, at
n = 60), so above n = 20 gamma, delta and the quadruple variance come from
sorted row-pair windows instead (see ``GammaProfile``): O(n^3 log n) time per
argument and O(n^2) memory plus one chunk of row pairs.  The quarter table is
then built only on demand, by the integral-form CF bound, which is not
capped in n.  All public operations are pure, all value types are
immutable, and indices appearing in the public API are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrixError, InvalidMatrixError, ParameterError, _integer

# Row/column sums of the centered matrix must vanish to this relative level.
_CENTERING_RTOL = 1e-10
# Largest n whose quadruple sums run over the literal quarter table, which at
# this n holds 20^2 * 19^2 / 4 = 3.61e4 terms.
_LITERAL_MAX_N = 20
# Elements (row pairs x n) per chunk of the row-pair route; a chunk holds at
# least one row pair, so at most max(n, _PAIR_CHUNK) elements.
_PAIR_CHUNK = 1 << 16


@dataclass(frozen=True)
class ScoreMatrix:
    """Real n x n score matrix with n >= 2 and finite entries (read-only)."""

    a: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float, order="C")
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidMatrixError(f"score matrix must be square, got shape {a.shape}")
        if a.shape[0] < 2:
            raise InvalidMatrixError(f"score matrix needs n >= 2, got n = {a.shape[0]}")
        if not np.all(np.isfinite(a)):
            raise InvalidMatrixError("score matrix entries must be finite")
        # |b| <= 4 max|a|, and b^2, |b|^3 are summed over n^4 quadruples:
        # past this scale they overflow into inf/nan and fail far downstream.
        scale = 4.0 * float(np.abs(a).max())
        if not np.isfinite(scale * scale * scale * scale):
            raise InvalidMatrixError(
                f"second-difference scale 4*max|a| = {scale:.6g} overflows in its fourth power"
            )
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]


class GammaProfile:
    """The functionals of one score matrix and its clipped moments.

    Attributes, set once here: ``matrix`` and its size ``n``; ``a_tilde``, the
    doubly centered matrix (row and column sums checked to vanish to 1e-10
    of the entry scale); ``mu``, ``sigma2`` and ``delta`` as in the module
    docstring; and ``sigma2_quad``, the quadruple-sum variance.  It equals
    ``sigma2`` up to roundoff and is the form used inside exponential
    damping bounds so that ``4*sigma2_quad - gamma(x) >= 0`` holds termwise.
    The quadruple sums take one of two routes, fixed by n alone:

    * n <= 20 (``_LITERAL_MAX_N``, a table of at most 3.61e4 terms):
      the literal route.  b^2 and |b| over the quarter j < k, s < r
      (``_second_differences``) are built at construction; every sum runs
      over them and is multiplied by 4, which is exact.
    * n > 20: the row-pair route.  For each row pair j < k the quadruple terms
      are the pairwise differences of d = a[j] - a[k], so with e the sorted
      row difference, shifted by its median, every |b| is some e_r - e_s with
      s < r.  For a cutoff T = 1/|x| the s with 0 < e_r - e_s <= T form one
      window found by a merge of e - T into e; the window carries the cubic
      terms and the s below it the squares, each a polynomial in e_r and
      window sums of e, e^2, e^3.  The window sums are differences of prefix
      sums accumulated outward from the median, so a far outlier enters only
      the windows that reach it.  Row pairs run in chunks of ``_PAIR_CHUNK``
      elements (at least one row pair); the chunk totals are combined by
      ``math.fsum``.  The quarter table is built only on first use (by
      ``gamma_split_many``) and dropped once the split tables are built.

    Rounding allowance of the row-pair route, to first order in u = 2^-53:
    with M_jk = M_kj the largest |e| of the row pair j < k and chi_jk(x) = 1 when
    the pair has a second difference with 0 < |b| <= 2/|x| (a cube window may
    be open) and 0 otherwise,

        |gamma_rows(x) - gamma(x)|
            <= 4 n^3 u sum_{j != k} M_jk^2 (1 + 2 |x| M_jk chi_jk(x)) / (n^2 (n-1)).

    With every window closed that is 2e-14 to 4e-14 relative at n = 30 (on
    the corpus of ``tests/test_scores.py``); open windows far from their
    row's median (|x| M_jk >> 1) widen it.  Observed errors stay below 2% of
    it.  ``4 * sigma2_quad`` is gamma's square part with every window closed
    and ``delta`` its cube part with every window open, and they carry
    the allowance of those two cases.  The reported gamma feeds an upper
    bound: it may come out low by at most this amount.
    """

    __slots__ = (
        "matrix",
        "n",
        "a_tilde",
        "mu",
        "sigma2",
        "delta",
        "sigma2_quad",
        "_quad_norm",
        "_literal",
        "_split",
    )

    def __init__(self, matrix: ScoreMatrix):
        if not isinstance(matrix, ScoreMatrix):
            matrix = ScoreMatrix(matrix)
        a = matrix.a
        n = matrix.n
        at = _double_center(a)

        scale = max(1.0, float(np.abs(a).max()))
        worst = max(
            float(np.abs(at.sum(axis=0)).max()),
            float(np.abs(at.sum(axis=1)).max()),
        )
        if worst > _CENTERING_RTOL * scale * n:
            raise InvalidMatrixError("centering failed to cancel row/column sums")

        self.matrix = matrix
        self.n = n
        self._quad_norm = float(n * n * (n - 1))
        self._literal = None
        self._split = None
        if n <= _LITERAL_MAX_N:
            b_sq, b_abs = self._literal_tables()
            self.sigma2_quad = float(b_sq.sum() / self._quad_norm)
            self.delta = float(4.0 * (b_sq * b_abs).sum() / self._quad_norm)
        else:
            cubes, squares = _row_pair_sums(a, np.array([0.0, np.inf]))
            self.sigma2_quad = float(squares[0] / self._quad_norm)
            self.delta = float(4.0 * cubes[1] / self._quad_norm)

        self.sigma2 = float((at * at).sum() / (n - 1))
        at.setflags(write=False)
        self.a_tilde = at
        self.mu = float(n * a.mean())

    def _literal_tables(self):
        """(b^2, |b|) over the quarter j < k, s < r, built on first use.

        Kept only at n <= 20, where every literal sum reads them; above, the
        one reader is ``_split_tables``, which runs once.
        """
        if self._literal is not None:
            return self._literal
        b = _second_differences(self.matrix.a)
        tables = (b * b, np.abs(b))
        if self.n <= _LITERAL_MAX_N:
            self._literal = tables
        return tables

    def gamma(self, x: float) -> float:
        """Quadruple-sum clipped moment at one argument (see ``gamma_many``)."""
        return float(self.gamma_many([x])[0])

    def gamma_tilde(self, x: float) -> float:
        """Pair-sum clipped moment sum at^2 min(1, |x at|) / (n - 1)."""
        at = self.a_tilde
        clip = np.minimum(1.0, abs(x) * np.abs(at))
        return float(((at * at) * clip).sum() / (self.n - 1))

    def gamma_many(self, xs) -> np.ndarray:
        """Clipped moment sum b^2 min(1, |x b|) / (n^2 (n-1)) at each argument.

        For n <= 20 the literal quadruple sum, 4 times its quarter j < k,
        s < r.  Each argument's row of terms is reduced by numpy's pairwise
        ``sum(axis=1)``, not by a BLAS product: its rounding is then fixed by
        the row alone, whatever the batch, its chunking or the BLAS build, so
        ``gamma(x)`` is a batch of one bit for bit.  Above n = 20 the row-pair
        windows (see the class docstring), whose per-argument totals are
        likewise independent of the batch.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        if self.n > _LITERAL_MAX_N:
            ax = np.abs(xs)
            with np.errstate(divide="ignore"):
                cutoffs = np.where(ax > 0.0, 1.0 / ax, np.inf)
            cubes, squares = _row_pair_sums(self.matrix.a, cutoffs)
            return 4.0 * (ax * cubes + squares) / self._quad_norm
        b_sq, b_abs = self._literal_tables()
        out = np.empty(xs.shape, dtype=float)
        # Chunk the (args x quadruples) broadcast to keep memory bounded.
        step = max(1, (1 << 22) // max(1, b_abs.size))
        for start in range(0, xs.size, step):
            block = np.abs(xs[start : start + step, None]) * b_abs[None, :]
            np.minimum(block, 1.0, out=block)
            block *= b_sq
            out[start : start + step] = block.sum(axis=1)
        return 4.0 * out / self._quad_norm

    def gamma_split_many(self, xs) -> np.ndarray:
        """gamma via the clip-threshold split of the same literal quarter sum.

        Sorting the |b| values once and splitting each evaluation at the
        threshold 1/|x| regroups sum b^2 min(1, |x b|) into a linear prefix
        plus a constant suffix, O(log) per argument.  Exact up to summation
        order; agrees with ``gamma_many`` to ~1e-12 relative.  Used inside
        quadrature loops where evaluation count dominates.  The tables keep
        only the distinct |b| and the prefix sums at the end of each run of
        equal |b|: a right-sided search always lands at a run end, so every
        value is the one the full sorted tables give.
        """
        order, prefix_cube, prefix_sq = self._split_tables()
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ax = np.abs(xs)
        with np.errstate(divide="ignore"):
            thresh = np.where(ax > 0.0, 1.0 / ax, np.inf)
        idx = np.searchsorted(order, thresh, side="right")
        total_sq = prefix_sq[-1]
        return 4.0 * (ax * prefix_cube[idx] + (total_sq - prefix_sq[idx])) / self._quad_norm

    def _split_tables(self):
        if self._split is None:
            b_sq, b_abs = self._literal_tables()
            perm = np.argsort(b_abs, kind="stable")
            order = b_abs[perm]
            sq_sorted = b_sq[perm]
            # Prefix index i counts the first i sorted entries; keep i = 0 and
            # the index just past each run of equal |b|.
            ends = np.flatnonzero(np.diff(order)) + 1
            keep = np.concatenate(([0], ends, [order.size]))
            prefix_cube = np.concatenate(([0.0], np.cumsum(sq_sorted * order)))[keep]
            prefix_sq = np.concatenate(([0.0], np.cumsum(sq_sorted)))[keep]
            self._split = (order[keep[1:] - 1], prefix_cube, prefix_sq)
        return self._split


def _double_center(y: np.ndarray) -> np.ndarray:
    """y[j, r] - colmean[r] - rowmean[j] + grandmean, for real or complex y."""
    return y - y.mean(axis=0)[None, :] - y.mean(axis=1)[:, None] + y.mean()


def _second_differences(y: np.ndarray) -> np.ndarray:
    """(y[j, r] - y[k, r]) - (y[j, s] - y[k, s]) over row pairs j < k and column pairs s < r.

    Flat, row pair major, both pair lists in ``triu_indices`` order: the
    n^2 (n-1)^2 / 4 values that stand for all distinct index pairs.  Grouped
    this way b flips sign exactly under j <-> k and under r <-> s, so every
    sum of b^2 or |b| over distinct pairs is exactly 4 times its sum here.
    """
    idx = np.arange(y.shape[0])
    lo, hi = np.nonzero(idx[:, None] < idx)  # triu_indices(n, 1), without its set-up cost
    d = y[lo] - y[hi]
    return (d[:, hi] - d[:, lo]).ravel()


def _outward_sums(v: np.ndarray, mid: int) -> np.ndarray:
    """q[:, i] = sum_{s<i} v[:, s] - sum_{s<mid} v[:, s], accumulated from column mid."""
    q = np.zeros((v.shape[0], v.shape[1] + 1))
    q[:, mid + 1 :] = np.cumsum(v[:, mid:], axis=1)
    q[:, :mid] = -np.cumsum(v[:, mid - 1 :: -1], axis=1)[:, ::-1]
    return q


def _row_pair_sums(a: np.ndarray, cutoffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cubic and square parts of the quadruple sum at each cutoff T >= 0.

    Returns (cubes, squares): the sums of |b|^3 over 0 < |b| <= T and of b^2
    over |b| > T, each over the row pairs j < k and the column pairs s < r
    (a quarter of the full quadruple sum).  T = inf closes every square and
    T = 0 every cube window.  ``a`` may be any rows x cols array: the row
    pairs come from its rows and the windows run along its columns.  A chunk
    holds max(1, _PAIR_CHUNK // cols) row pairs, so at most
    max(cols, _PAIR_CHUNK) elements, and its temporaries add up to about 21
    float64 arrays of that size (169 MB for one row pair of 10^6 columns).  See
    ``GammaProfile`` for the method and its rounding allowance.
    """
    n = a.shape[1]
    mid = n // 2
    cols = np.arange(n)
    rows_j, rows_k = np.triu_indices(a.shape[0], 1)
    step = max(1, _PAIR_CHUNK // n)
    cubes = [[] for _ in range(cutoffs.size)]
    squares = [[] for _ in range(cutoffs.size)]
    for start in range(0, rows_j.size, step):
        d = a[rows_j[start : start + step]] - a[rows_k[start : start + step]]
        d.sort(axis=1)
        e = d - d[:, mid : mid + 1]
        e_sq = e * e
        e_cu = e_sq * e
        q1, q2, q3 = (_outward_sums(v, mid) for v in (e, e_sq, e_cu))
        # ties[p, r]: first index of e[p, r]'s run of equal values.  Equal
        # entries give b = 0, so the cube window ends there.
        starts = np.ones(e.shape, dtype=bool)
        starts[:, 1:] = e[:, 1:] != e[:, :-1]
        ties = np.maximum.accumulate(np.where(starts, cols, 0), axis=1)
        at = np.arange(e.shape[0])[:, None]
        q1_hi, q2_hi, q3_hi = q1[at, ties], q2[at, ties], q3[at, ties]
        for i, cut in enumerate(cutoffs.tolist()):
            if cut == 0.0:
                lo = ties
            elif cut == math.inf:
                lo = np.zeros_like(ties)
            else:
                lo = np.minimum(_merge_ranks(e, cut), ties)
            q1_lo, q2_lo = q1[at, lo], q2[at, lo]
            # sum over the window [lo, ties) of (e_r - e_s)^3, and over [0, lo)
            # of (e_r - e_s)^2, expanded in window sums of e^1..3.
            cube = (
                (ties - lo) * e_cu
                - 3.0 * e_sq * (q1_hi - q1_lo)
                + 3.0 * e * (q2_hi - q2_lo)
                - (q3_hi - q3[at, lo])
            )
            square = lo * e_sq - 2.0 * e * (q1_lo - q1[:, :1]) + (q2_lo - q2[:, :1])
            cubes[i].append(float(cube.sum()))
            squares[i].append(float(square.sum()))
    return (
        np.array([math.fsum(part) for part in cubes]),
        np.array([math.fsum(part) for part in squares]),
    )


def _merge_ranks(e: np.ndarray, cut: float) -> np.ndarray:
    """Row-wise ``searchsorted(e[p], e[p] - cut, side="left")`` for sorted rows.

    The queries e - cut are placed before the keys e and each row is merged by
    a stable sort, so a query sorts before the keys equal to it and the r-th
    query (queries keep their order) lands after exactly lo[p, r] keys.
    """
    n = e.shape[1]
    merged = np.argsort(np.concatenate((e - cut, e), axis=1), axis=1, kind="stable")
    is_key = merged >= n
    keys_before = np.cumsum(is_key, axis=1)
    return keys_before[~is_key].reshape(e.shape)


def _as_profile(m: ScoreMatrix | GammaProfile) -> GammaProfile:
    return m if isinstance(m, GammaProfile) else GammaProfile(m)


def center(m: ScoreMatrix | GammaProfile) -> GammaProfile:
    """The ``GammaProfile`` of ``m`` (a profile is returned as is).

    Its ``a_tilde``, ``mu``, ``sigma2`` and ``delta`` are the centered matrix
    and the statistics derived from it (see ``GammaProfile``).
    """
    return _as_profile(m)


def variance_quadruple(m: ScoreMatrix | GammaProfile) -> float:
    """Variance via the quadruple route: sum b^2 / (4 n^2 (n-1)).

    Agrees with ``center(m).sigma2`` to 1e-10 relative; kept as a separate
    evaluation path on purpose.
    """
    return _as_profile(m).sigma2_quad


def gamma(m: ScoreMatrix | GammaProfile, x: float) -> float:
    """Clipped quadruple moment sum b^2 min(1, |x b|) / (n^2 (n-1)).

    Nondecreasing in |x|, zero at x = 0, bounded by min(4*sigma2, |x|*delta),
    and converging to 4*sigma2 as |x| grows.
    """
    if not np.isfinite(x):
        raise ParameterError(f"x must be finite, got {x}")
    return _as_profile(m).gamma(float(x))


def gamma_tilde(m: ScoreMatrix | GammaProfile, x: float) -> float:
    """Clipped pair moment sum at^2 min(1, |x at|) / (n - 1)."""
    if not np.isfinite(x):
        raise ParameterError(f"x must be finite, got {x}")
    return _as_profile(m).gamma_tilde(float(x))


@dataclass(frozen=True)
class SamplingScores:
    """Score matrix induced by drawing m of n values without replacement.

    ``degenerate`` flags sigma2 == 0 (constant values or a full draw); such
    designs stay inspectable here and are rejected only by bound evaluation.
    """

    matrix: ScoreMatrix
    mu: float
    sigma2: float
    m_draw: int
    degenerate: bool


def _sampling_design(values, m_draw: int) -> tuple[np.ndarray, float, float]:
    """(c, mu, sigma2) of the design drawing ``m_draw`` of ``values``, by the closed forms

        mu     = m_draw * mean(values)
        sigma2 = m_draw (n - m_draw) / (n (n-1)) * sum((values - mean)^2),

    with sigma2 = 0 exactly when the design is degenerate: equal values, a
    full draw, or a sum that rounds to 0.  Raises ``InvalidMatrixError``
    unless the values form a finite 1-D vector of at least 2 entries, and
    ``ParameterError`` unless m_draw is an integer in 1..n.
    """
    c = np.asarray(values, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise InvalidMatrixError(f"need a 1-D vector of at least 2 values, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidMatrixError("values must be finite")
    _integer(m_draw, "m_draw")
    n = c.size
    if not 1 <= m_draw <= n:
        raise ParameterError(f"m_draw={m_draw} out of range 1..{n}")
    cbar = float(c.mean())
    spread = float(c.max() - c.min())
    sigma2 = m_draw * (n - m_draw) / (n * (n - 1)) * float(((c - cbar) ** 2).sum())
    degenerate = spread == 0.0 or m_draw == n or sigma2 == 0.0
    return c, m_draw * cbar, 0.0 if degenerate else sigma2


def from_sampling(values, m_draw: int) -> SamplingScores:
    """Build the score matrix for a without-replacement sum of ``m_draw`` values.

    Row j of the matrix equals the value vector for j <= m_draw and is zero
    otherwise, so S is the sum of m_draw values drawn uniformly without
    replacement; mu and sigma2 take the closed forms of ``_sampling_design``.
    """
    c, mu, sigma2 = _sampling_design(values, m_draw)
    n = c.size
    a = np.zeros((n, n))
    a[:m_draw, :] = c[None, :]
    return SamplingScores(
        matrix=ScoreMatrix(a),
        mu=mu,
        sigma2=sigma2,
        m_draw=m_draw,
        degenerate=sigma2 == 0.0,
    )


def require_nondegenerate(sigma2: float) -> float:
    """Return sigma2 as a float, raising if the statistic is almost surely constant."""
    sigma2 = float(sigma2)
    if sigma2 <= 0.0:
        raise DegenerateMatrixError("sigma2 = 0: the permutation statistic is constant")
    return sigma2
