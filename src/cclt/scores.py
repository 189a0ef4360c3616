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

Quadruple sums are evaluated literally over all admissible index quadruples
(vectorised, pairwise-summed); they serve as the trusted oracles of the
package, so no algebraic shortcuts are applied.  All public operations are
pure, all value types are immutable, and indices appearing in the public API
are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMatrixError, InvalidMatrixError, ParameterError

# Row/column sums of the centered matrix must vanish to this relative level.
_CENTERING_RTOL = 1e-10


@dataclass(frozen=True)
class ScoreMatrix:
    """Real n x n score matrix with n >= 2 and finite entries (read-only)."""

    a: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
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


@dataclass(frozen=True)
class CenteredStats:
    """Centered matrix and derived scalars of one score matrix.

    ``sigma2`` is the pair-sum variance sum(at**2)/(n-1); ``delta`` is the
    cubic quadruple functional sum(|b|^3)/(n^2 (n-1)).  Row sums, column sums
    of ``a_tilde`` vanish by construction (checked to 1e-10 of the entry
    scale).
    """

    n: int
    a_tilde: np.ndarray
    row_means: np.ndarray
    col_means: np.ndarray
    grand_mean: float
    mu: float
    sigma2: float
    delta: float


class GammaProfile:
    """Precomputed clipped-moment machinery for one score matrix.

    Holds the flattened second differences over distinct index pairs (the
    quadruple-sum route) and the flattened centered entries (the pair-sum
    route), so that ``gamma``/``gamma_tilde`` evaluations at many arguments
    reuse one O(n^4) construction.  ``sigma2_quad`` is the quadruple-sum
    variance; it equals ``stats.sigma2`` up to roundoff and is the form used
    inside exponential damping bounds so that ``4*sigma2_quad - gamma(x) >= 0``
    holds termwise.
    """

    __slots__ = (
        "matrix",
        "stats",
        "n",
        "b_sq",
        "b_abs",
        "at_sq",
        "at_abs",
        "sigma2_quad",
        "_quad_norm",
        "_split",
    )

    def __init__(self, matrix: ScoreMatrix):
        if not isinstance(matrix, ScoreMatrix):
            matrix = ScoreMatrix(matrix)
        a = matrix.a
        n = matrix.n
        row_means = a.mean(axis=1)
        col_means = a.mean(axis=0)
        grand = float(a.mean())
        at = a - col_means[None, :] - row_means[:, None] + grand

        scale = max(1.0, float(np.abs(a).max()))
        worst = max(
            float(np.abs(at.sum(axis=0)).max()),
            float(np.abs(at.sum(axis=1)).max()),
        )
        if worst > _CENTERING_RTOL * scale * n:
            raise InvalidMatrixError("centering failed to cancel row/column sums")

        # Grouped differences keep the j == k and r == s slices exactly zero
        # and make the (j,k) / (r,s) antisymmetries exact in floating point.
        row_diff = a[:, None, :] - a[None, :, :]
        b = row_diff[:, :, :, None] - row_diff[:, :, None, :]
        off = ~np.eye(n, dtype=bool)
        rows, cols = np.nonzero(off)
        b_distinct = b[rows, cols][:, rows, cols].ravel()

        self.matrix = matrix
        self.n = n
        self.b_sq = b_distinct * b_distinct
        self.b_abs = np.abs(b_distinct)
        self.at_sq = (at * at).ravel()
        self.at_abs = np.abs(at).ravel()
        self._quad_norm = float(n * n * (n - 1))
        self._split = None
        self.sigma2_quad = float(self.b_sq.sum() / (4.0 * self._quad_norm))

        sigma2 = float(self.at_sq.sum() / (n - 1))
        delta = float((self.b_sq * self.b_abs).sum() / self._quad_norm)
        at = at.copy()
        at.setflags(write=False)
        self.stats = CenteredStats(
            n=n,
            a_tilde=at,
            row_means=row_means,
            col_means=col_means,
            grand_mean=grand,
            mu=float(n * grand),
            sigma2=sigma2,
            delta=delta,
        )

    def gamma(self, x: float) -> float:
        """Quadruple-sum clipped moment at one argument (see ``gamma_many``)."""
        return float(self.gamma_many([x])[0])

    def gamma_tilde(self, x: float) -> float:
        """Pair-sum clipped moment sum at^2 min(1, |x at|) / (n - 1)."""
        clip = np.minimum(1.0, abs(x) * self.at_abs)
        return float((self.at_sq * clip).sum() / (self.n - 1))

    def gamma_many(self, xs) -> np.ndarray:
        """Clipped moment sum b^2 min(1, |x b|) / (n^2 (n-1)) at each argument.

        The literal quadruple sum.  Each argument's row of terms is reduced by
        numpy's pairwise ``sum(axis=1)``, not by a BLAS product: its rounding
        is then fixed by the row alone, whatever the batch, its chunking or
        the BLAS build, so ``gamma(x)`` is a batch of one bit for bit.
        """
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        out = np.empty(xs.shape, dtype=float)
        # Chunk the (args x quadruples) broadcast to keep memory bounded.
        step = max(1, (1 << 22) // max(1, self.b_abs.size))
        for start in range(0, xs.size, step):
            block = np.abs(xs[start : start + step, None]) * self.b_abs[None, :]
            np.minimum(block, 1.0, out=block)
            block *= self.b_sq
            out[start : start + step] = block.sum(axis=1)
        return out / self._quad_norm

    def gamma_split_many(self, xs) -> np.ndarray:
        """gamma via the clip-threshold split of the same literal sum.

        Sorting the |b| values once and splitting each evaluation at the
        threshold 1/|x| regroups sum b^2 min(1, |x b|) into a linear prefix
        plus a constant suffix, O(log) per argument.  Exact up to summation
        order; agrees with ``gamma_many`` to ~1e-12 relative.  Used inside
        quadrature loops where evaluation count dominates.
        """
        order, prefix_cube, prefix_sq = self._split_tables()
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        ax = np.abs(xs)
        with np.errstate(divide="ignore"):
            thresh = np.where(ax > 0.0, 1.0 / ax, np.inf)
        idx = np.searchsorted(order, thresh, side="right")
        total_sq = prefix_sq[-1]
        return (ax * prefix_cube[idx] + (total_sq - prefix_sq[idx])) / self._quad_norm

    def _split_tables(self):
        if self._split is None:
            order = np.sort(self.b_abs)
            perm = np.argsort(self.b_abs, kind="stable")
            sq_sorted = self.b_sq[perm]
            prefix_cube = np.concatenate(([0.0], np.cumsum(sq_sorted * order)))
            prefix_sq = np.concatenate(([0.0], np.cumsum(sq_sorted)))
            self._split = (order, prefix_cube, prefix_sq)
        return self._split


def _as_profile(m: ScoreMatrix | GammaProfile) -> GammaProfile:
    return m if isinstance(m, GammaProfile) else GammaProfile(m)


def center(m: ScoreMatrix) -> CenteredStats:
    """Doubly center ``m`` and return the derived statistics.

    at[j, r] = a[j, r] - colmean[r] - rowmean[j] + grandmean, mu = n*grandmean,
    sigma2 = sum(at**2)/(n-1), delta = sum over distinct index pairs of
    |b|^3 / (n^2 (n-1)).
    """
    return _as_profile(m).stats


def variance_quadruple(m: ScoreMatrix | GammaProfile) -> float:
    """Variance via the quadruple route: sum b^2 / (4 n^2 (n-1)).

    Agrees with ``center(m).sigma2`` to 1e-10 relative; kept as a separate
    evaluation path on purpose.
    """
    return _as_profile(m).sigma2_quad


def quad_diff(m: ScoreMatrix, j: int, k: int, r: int, s: int) -> float:
    """Second difference a[j,r] - a[k,r] - a[j,s] + a[k,s] (1-based indices).

    Vanishes for j == k or r == s, flips sign under swapping j with k (or r
    with s), and is unchanged when computed from the centered matrix.
    """
    n = m.n
    for name, idx in (("j", j), ("k", k), ("r", r), ("s", s)):
        if not 1 <= idx <= n:
            raise IndexError(f"index {name}={idx} out of range 1..{n}")
    a = m.a
    # Grouped so that j == k and r == s give exact zeros and index swaps flip
    # the sign exactly.
    return float((a[j - 1, r - 1] - a[k - 1, r - 1]) - (a[j - 1, s - 1] - a[k - 1, s - 1]))


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


def g_clip(x: float, y: float) -> float:
    """Clipped square g(x, y) = x^2 * min(1, |y|).

    Satisfies g(x, y+z) <= g(x, y) + g(x, z), the exchange inequality
    g(x, c*y) + g(y, c*x) <= g(x, c*x) + g(y, c*y), and for c != 0 the lower
    bound x^2 - 4/(27 c^2) <= g(x, c*x).
    """
    return x * x * min(1.0, abs(y))


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


def from_sampling(values, m_draw: int) -> SamplingScores:
    """Build the score matrix for a without-replacement sum of ``m_draw`` values.

    Row j of the matrix equals the value vector for j <= m_draw and is zero
    otherwise, so S is the sum of m_draw values drawn uniformly without
    replacement.  Closed forms:

        mu     = m_draw * mean(values)
        sigma2 = m_draw (n - m_draw) / (n (n-1)) * sum((values - mean)^2)
    """
    c = np.asarray(values, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise InvalidMatrixError(f"need a 1-D vector of at least 2 values, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidMatrixError("values must be finite")
    n = c.size
    if not 1 <= m_draw <= n:
        raise ParameterError(f"m_draw={m_draw} out of range 1..{n}")
    a = np.zeros((n, n))
    a[:m_draw, :] = c[None, :]
    cbar = float(c.mean())
    spread = float(c.max() - c.min())
    sigma2 = m_draw * (n - m_draw) / (n * (n - 1)) * float(((c - cbar) ** 2).sum())
    degenerate = spread == 0.0 or m_draw == n or sigma2 == 0.0
    return SamplingScores(
        matrix=ScoreMatrix(a),
        mu=m_draw * cbar,
        sigma2=0.0 if degenerate else sigma2,
        m_draw=m_draw,
        degenerate=degenerate,
    )


def require_nondegenerate(stats_or_sigma2) -> float:
    """Return sigma2, raising if the statistic is almost surely constant."""
    sigma2 = stats_or_sigma2.sigma2 if isinstance(stats_or_sigma2, CenteredStats) else float(stats_or_sigma2)
    if sigma2 <= 0.0:
        raise DegenerateMatrixError("sigma2 = 0: the permutation statistic is constant")
    return sigma2
