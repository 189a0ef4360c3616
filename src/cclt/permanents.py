"""Permanents, the permutation-statistic characteristic function, and its bounds.

The characteristic function of S = sum_j a[j, pi(j)] under a uniform random
permutation is a permanent with unit-modulus entries:

    phi(t) = perm( exp(i t a[j, r]) ) / n!.

Permanents are evaluated exactly by Glynn's formula

    perm(M) = 2^-(n-1) sum_{d in {+-1}^n, d_0 = 1} prod_i d_i prod_j sum_i d_i M[i, j]

in Gray-code order, O(2^(n-1) * n), by one kernel batched over matrices.  Its
terms add up to 2^(n-1) perm(M), where Ryser's add up to perm(M), so far less
cancels: phi(0) is within 1e-13 of 1 at n = 18, against 6e-9 with Ryser.
The tests check it against a naive permutation sum at small n.

Three explicit inequalities for phi are implemented:

* a modulus bound,
      |phi(t)| <= ( mean over distinct index pairs of cos^2(t b / 2) )^(floor(n/2)/2),
  with the mean normalised by n^2 (n-1)^2, summed per row pair in O(n^3) per t;
* an exponential damping bound h_ell(t) for permutation sums restricted by
  fixing ell rows and columns,
      h_ell(t) = min(1, exp(ell - (n-ell-1)/(4(n-1)) * t^2 *
                              (sigma2 - gamma(2 kappa t)/4))) * [n >= ell];
* two bounds on |phi(t) - exp(i t mu - sigma2 t^2 / 2)|: an integral form
  (adaptive quadrature over an auxiliary variable u in [0, 1]) and a
  closed form, plus a simplified closed form available for n >= 6.

Each of phi, the restricted sums and the bounds has one implementation, over
an array of t (the ``_grid`` functions and ``_damping_many``; the integral
form integrates one quadrature lane per t), and its scalar call is a batch of
one.  They agree bit for bit, except that the Glynn kernel tabulates fewer sign
bits for a larger batch, so a permanent's last bits may depend on its batch.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import kappa
from .errors import CapExceededError, IndexRangeError, ParameterError, _integer
from .quadrature import adaptive_simpson_lanes
from .scores import GammaProfile, ScoreMatrix, _as_profile, require_nondegenerate


# Element budget of the kernel's sign-sum table: 2^16 complex values, 1 MB.
_BLOCK_ELEMS = 1 << 16
# Largest n of a permanent: ``charfn_grid`` and ``evaluate_cf_grid`` take it
# as their default cap, and every other entry point refuses above it.
PERM_CAP = 20


def _t_values(ts) -> np.ndarray:
    """``ts`` as a 1-d float array; a non-finite t raises ``ParameterError``."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if not np.isfinite(ts).all():
        raise ParameterError(f"t must be finite, got {ts[~np.isfinite(ts)][0]}")
    return ts


def _perm_batch(mats: np.ndarray) -> np.ndarray:
    """Permanents of a [B, n, n] complex stack by Glynn's formula.

    Signed column sums of rows 1..k are tabulated for all 2^k sign codes, k as
    large as ``_BLOCK_ELEMS`` allows; the loop walks the other rows' signs in
    Gray-code order.  Blocks are reduced by pairwise sums, as terms cancel.
    The stack is taken C-contiguous, as the sums' rounding follows the memory
    layout.
    """
    mats = np.ascontiguousarray(mats)
    size, n, _ = mats.shape
    if n == 0 or size == 0:
        return np.ones(size, dtype=complex)
    if n * size > _BLOCK_ELEMS:
        step = _BLOCK_ELEMS // n
        return np.concatenate([_perm_batch(mats[s : s + step]) for s in range(0, size, step)])
    k = min(n - 1, (_BLOCK_ELEMS // (n * size)).bit_length() - 1)
    low = np.empty((n, size, 1 << k), dtype=complex)  # [j, b, code]
    low[:, :, 0] = mats[:, 1 : k + 1].sum(axis=1).T
    sign_low = np.ones(1 << k)
    for i in range(k):  # codes with bit i set give row 1 + i the sign -1
        np.subtract(low[:, :, : 1 << i], 2.0 * mats[:, 1 + i].T[:, :, None], out=low[:, :, 1 << i : 2 << i])
        sign_low[1 << i : 2 << i] = -sign_low[: 1 << i]
    high = (mats[:, 0] + mats[:, k + 1 :].sum(axis=1)).T.copy()  # [j, b], every high sign +1
    total = np.zeros(size, dtype=complex)
    for step in range(1 << (n - 1 - k)):
        if step:  # high code g = step ^ (step >> 1) flips one sign; g's parity is step's
            bit = (step & -step).bit_length() - 1
            high += (-2.0 if (step ^ step >> 1) >> bit & 1 else 2.0) * mats[:, k + 1 + bit].T
        prod = low[0] + high[0, :, None]
        for j in range(1, n):
            prod *= low[j] + high[j, :, None]
        prod *= sign_low
        total += -prod.sum(axis=1) if step & 1 else prod.sum(axis=1)
    return total / 2.0 ** (n - 1)


def permanent(matrix) -> complex:
    """Exact permanent of a square complex matrix by Glynn's formula, n <= ``PERM_CAP``."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"permanent needs a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if n > PERM_CAP:
        raise CapExceededError(f"n = {n} exceeds the permanent cap {PERM_CAP}")
    return complex(_perm_batch(m[None])[0])


def _exp_perms(a: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """perm(exp(i t a)) at each t of ``ts``, one Glynn batch."""
    return _perm_batch(np.exp(1j * ts[:, None, None] * a))


def charfn(m: ScoreMatrix, t: float) -> complex:
    """Characteristic function E exp(i t S) = perm(exp(i t a)) / n!, n <= ``PERM_CAP``."""
    return complex(charfn_grid(m, [t])[0])


def charfn_grid(m: ScoreMatrix, ts, perm_cap: int = PERM_CAP) -> np.ndarray:
    """phi evaluated on an array of t values, one permanent batch over t; n > ``perm_cap`` raises."""
    ts = _t_values(ts)
    if m.n > perm_cap:
        raise CapExceededError(f"n = {m.n} exceeds the permanent cap {perm_cap}")
    return _exp_perms(m.a, ts) / math.factorial(m.n)


def _gauss_cf_grid(profile: GammaProfile, ts: np.ndarray) -> np.ndarray:
    """exp(i t mu - sigma2 t^2 / 2) at each t of ``ts``."""
    return np.exp(1j * ts * profile.mu - profile.sigma2 * ts * ts / 2.0)


def gauss_cf(m: ScoreMatrix | GammaProfile, t: float) -> complex:
    """Characteristic function exp(i t mu - sigma2 t^2 / 2) of the matching normal."""
    return complex(_gauss_cf_grid(_as_profile(m), np.array([t], dtype=float))[0])


def _cf_gap(profile: GammaProfile, ts) -> np.ndarray:
    """|phi(t) - exp(i t mu - sigma2 t^2 / 2)| at each t of the array ``ts``."""
    return np.abs(charfn_grid(profile.matrix, ts) - _gauss_cf_grid(profile, ts))


def charfn_bound_grid(m: ScoreMatrix | GammaProfile, ts) -> np.ndarray:
    """Modulus bound (mean cos^2(t b / 2))^(floor(n/2)/2) for |phi(t)| at each t.

    The mean over index quadruples with distinct rows and columns is normalised
    by n^2 (n-1)^2; row pair j < k adds (n(n-2) + |sum_r exp(i t d_r)|^2) / 2,
    d = a[k] - a[j].  Tight for the 2 x 2 matrix [[t, -t], [-t, t]].
    """
    profile = _as_profile(m)
    ts = _t_values(ts)
    n, a = profile.n, profile.matrix.a
    step = max(1, _BLOCK_ELEMS // (n * n))
    total = np.full(ts.shape, n * (n - 1.0) * n * (n - 2.0) / 2.0)
    for j in range(n - 1):
        for lo in range(0, ts.size, step):
            phase = ts[lo : lo + step, None, None] * (a[j + 1 :] - a[j])
            total[lo : lo + step] += (np.cos(phase).sum(axis=2) ** 2 + np.sin(phase).sum(axis=2) ** 2).sum(axis=1)
    return (total / (n * n * (n - 1.0) * (n - 1.0))) ** ((n // 2) / 2.0)


def charfn_bound(m: ScoreMatrix | GammaProfile, t: float) -> float:
    """Modulus bound for |phi(t)| at one t (see ``charfn_bound_grid``)."""
    return float(charfn_bound_grid(m, [t])[0])


def _damping_many(profile: GammaProfile, ts: np.ndarray, ell: float, gamma_2kt: np.ndarray) -> np.ndarray:
    """h_ell at each t, given gamma(2 kappa t) precomputed.

    h_ell(t) = min(1, exp(ell - (n-ell-1)/(4(n-1)) t^2 (sigma2 - gamma(2 kappa t)/4)))
    when n >= ell and 0 otherwise.  The variance enters through the same
    quadruple sum as gamma, which keeps sigma2 - gamma(.)/4 >= 0 termwise.
    """
    n = profile.n
    if n < ell:
        return np.zeros(ts.shape)
    damp = profile.sigma2_quad - gamma_2kt / 4.0
    exponent = ell - (n - ell - 1.0) / (4.0 * (n - 1.0)) * ts * ts * damp
    return np.minimum(1.0, np.exp(np.minimum(exponent, 0.0)))


def _damping(profile: GammaProfile, ts: np.ndarray, ell: float) -> np.ndarray:
    """h_ell at each t, with gamma(2 kappa t) evaluated here."""
    kap, _ = kappa()
    return _damping_many(profile, ts, ell, profile.gamma_many(2.0 * kap * ts))


def _weighted_terms(profile: GammaProfile, ts: np.ndarray, g_a, g_b, g_2k) -> np.ndarray:
    """h_2 g_a / 2 + 2(n-2)/(n(n-1)) h_3 g_b + (n-2)(n-3)/(n(n-1)) h_4 g_b at each t,
    h_ell from g_2k = gamma(2 kappa t); the h_3 term vanishes for n = 2, h_4 for n <= 3."""
    n = profile.n
    total = 0.5 * _damping_many(profile, ts, 2, g_2k) * g_a
    if n >= 3:
        total += 2.0 * (n - 2.0) / (n * (n - 1.0)) * _damping_many(profile, ts, 3, g_2k) * g_b
    if n >= 4:
        total += (n - 2.0) * (n - 3.0) / (n * (n - 1.0)) * _damping_many(profile, ts, 4, g_2k) * g_b
    return total


def h_ell(m: ScoreMatrix | GammaProfile, t: float, ell: float) -> float:
    """Damping bound h_ell(t) for permutation sums with ell rows and columns fixed."""
    if not ell >= 0:  # written so that NaN fails
        raise ParameterError(f"ell must be nonnegative, got {ell}")
    return float(_damping(_as_profile(m), _t_values(t), ell)[0])


def restricted_sum_grid(
    m: ScoreMatrix | GammaProfile, cols_removed, rows_removed, ts
) -> tuple[np.ndarray, np.ndarray]:
    """Restricted permutation sums and their damping bound at each t.

    ``cols_removed`` and ``rows_removed`` are equal-sized sets of 1-based
    column and row indices (sizes ell).  The left-hand side is

        | sum over bijections r from the remaining rows onto the remaining
          columns of exp(i t sum_j a[j, r(j)]) |  /  (n - ell)!,

    by one Glynn batch over t (n - ell <= ``PERM_CAP``); rhs = h_ell(t) >= lhs for every t.
    An index outside 1..n raises ``IndexRangeError``.
    """
    profile = _as_profile(m)
    n = profile.n
    cols = sorted(set(_integer(c, "removed column") for c in cols_removed))
    rows = sorted(set(_integer(r, "removed row") for r in rows_removed))
    if len(cols) != len(cols_removed) or len(rows) != len(rows_removed):
        raise ParameterError("removed index sets must not contain duplicates")
    if len(cols) != len(rows):
        raise ParameterError("removed row and column sets must have equal size")
    for idx in cols + rows:
        if not 1 <= idx <= n:
            raise IndexRangeError(f"index {idx} out of range 1..{n}")
    ell, k = len(cols), n - len(cols)
    if k > PERM_CAP:
        raise CapExceededError(f"restricted sum needs a {k} x {k} permanent, above cap {PERM_CAP}")
    ts = _t_values(ts)
    kept_rows = np.delete(profile.matrix.a, np.array(rows, dtype=int) - 1, axis=0)
    sub = np.delete(kept_rows, np.array(cols, dtype=int) - 1, axis=1)
    lhs = np.abs(_exp_perms(sub, ts)) / math.factorial(k)
    return lhs, _damping(profile, ts, ell)


def restricted_sum_check(
    m: ScoreMatrix | GammaProfile, cols_removed, rows_removed, t: float
) -> tuple[float, float]:
    """(lhs, rhs) of the restricted-sum bound at one t (see ``restricted_sum_grid``)."""
    lhs, rhs = restricted_sum_grid(m, cols_removed, rows_removed, [t])
    return float(lhs[0]), float(rhs[0])


def cf_diff_bound_integral_grid(
    m: ScoreMatrix | GammaProfile,
    ts,
    tol: float = 1e-10,
) -> np.ndarray:
    """Integral-form bound on |phi(t) - exp(i t mu - sigma2 t^2/2)| at each t.

    Integrates, over u in [0, 1] by adaptive Simpson quadrature to absolute
    tolerance ``tol``,

        t^2 u [ h_2(tu) gamma(tu/4) / 2
                + 2(n-2)/(n(n-1)) h_3(tu) gamma(tu/2)
                + (n-2)(n-3)/(n(n-1)) h_4(tu) gamma(tu/2) ]
        * exp(-(1-u^2) sigma2 t^2 / 2).

    The h_3 term vanishes for n = 2 and the h_4 term for n <= 3.  All t are
    integrated in one lanes call, one lane per t; a lane's value does not
    depend on the other t.  The bound is 0 at t = 0, where the integrand is
    not evaluated.  Raises ``ConvergenceError`` when a lane does not converge.

    ``tol`` is Simpson's local acceptance target, not a bound on the error of
    the result: on a 14 x 14 Gaussian matrix over 25 points of [0, 6/sigma]
    the value at tol 1e-10 is up to 8.6e-9 above its value at tol 1e-14, and
    at two points up to 2.1e-10 below it.
    """
    profile = _as_profile(m)
    require_nondegenerate(profile.sigma2)
    ts = _t_values(ts)
    sigma2 = profile.sigma2_quad
    kap, _ = kappa()

    def integrand(us: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        t = ts[lanes]
        tu = t * us
        stacked = profile.gamma_split_many(np.concatenate((tu / 4.0, tu / 2.0, 2.0 * kap * tu)))
        inner = _weighted_terms(profile, tu, *np.split(stacked, 3))
        return t * t * us * inner * np.exp(-(1.0 - us * us) * sigma2 * t * t / 2.0)

    # A lane over the empty interval [0, 0] is 0 and never calls the integrand.
    return adaptive_simpson_lanes(integrand, 0.0, (ts != 0.0).astype(float), tol)


def cf_diff_bound_integral(
    m: ScoreMatrix | GammaProfile,
    t: float,
    tol: float = 1e-10,
) -> float:
    """Integral-form bound at one t (see ``cf_diff_bound_integral_grid``)."""
    return float(cf_diff_bound_integral_grid(m, [t], tol=tol)[0])


@dataclass(frozen=True)
class ClosedFormBounds:
    """Closed-form CF-difference bounds; ``simplified`` requires n >= 6."""

    general: float
    simplified: float | None


def cf_diff_bound_closed_grid(
    m: ScoreMatrix | GammaProfile, ts
) -> tuple[np.ndarray, np.ndarray | None]:
    """Closed-form bounds on |phi(t) - exp(i t mu - sigma2 t^2/2)| at each t.

    The general form is

        t^2/4 gamma(t/6) h_2(t) + (n-2) t^2 / (n(n-1)) gamma(t/3) h_3(t)
        + (n-2)(n-3) t^2 / (2 n(n-1)) gamma(t/3) h_4(t),

    it dominates the integral-form bound.  For n >= 6 the coarser

        32 t^2 gamma(t/3) exp(-t^2/20 (sigma2 - gamma(2 kappa t)/4))

    is evaluated as well; below n = 6 the second array is None.
    """
    profile = _as_profile(m)
    require_nondegenerate(profile.sigma2)
    ts = _t_values(ts)
    kap, _ = kappa()
    stacked = profile.gamma_many(np.concatenate((ts / 6.0, ts / 3.0, 2.0 * kap * ts)))
    g16, g13, g2k = np.split(stacked, 3)
    t2 = ts * ts
    general = t2 / 2.0 * _weighted_terms(profile, ts, g16, g13, g2k)
    simplified = None
    if profile.n >= 6:
        simplified = 32.0 * t2 * g13 * np.exp(-t2 / 20.0 * (profile.sigma2_quad - g2k / 4.0))
    return general, simplified


def cf_diff_bound_closed(m: ScoreMatrix | GammaProfile, t: float) -> ClosedFormBounds:
    """Closed-form bounds at one t (see ``cf_diff_bound_closed_grid``)."""
    general, simplified = cf_diff_bound_closed_grid(m, [t])
    return ClosedFormBounds(
        general=float(general[0]),
        simplified=None if simplified is None else float(simplified[0]),
    )


@dataclass(frozen=True)
class CfEvaluation:
    """Characteristic function value at one t together with its bounds."""

    t: float
    phi: complex
    gauss: complex
    modulus_bound: float
    diff_bound_integral: float
    diff_bound_closed: float
    diff_bound_closed_simplified: float | None

    def as_dict(self) -> dict:
        """The fields, with ``phi`` and ``gauss`` as {"re", "im"}."""
        report = asdict(self)
        for key in ("phi", "gauss"):
            report[key] = {"re": report[key].real, "im": report[key].imag}
        return report


def evaluate_cf_grid(
    m: ScoreMatrix | GammaProfile,
    ts,
    tol: float = 1e-10,
    perm_cap: int = PERM_CAP,
) -> list[CfEvaluation]:
    """Evaluate phi, the matching normal CF, and all three bounds at each t; n > ``perm_cap`` raises."""
    profile = _as_profile(m)
    ts = _t_values(ts)
    phis = charfn_grid(profile.matrix, ts, perm_cap=perm_cap)
    gauss = _gauss_cf_grid(profile, ts)
    modulus = charfn_bound_grid(profile, ts)
    integral = cf_diff_bound_integral_grid(profile, ts, tol=tol)
    closed, simplified = cf_diff_bound_closed_grid(profile, ts)
    return [
        CfEvaluation(
            t=float(t),
            phi=complex(phis[i]),
            gauss=complex(gauss[i]),
            modulus_bound=float(modulus[i]),
            diff_bound_integral=float(integral[i]),
            diff_bound_closed=float(closed[i]),
            diff_bound_closed_simplified=None if simplified is None else float(simplified[i]),
        )
        for i, t in enumerate(ts)
    ]


def evaluate_cf(
    m: ScoreMatrix | GammaProfile,
    t: float,
    tol: float = 1e-10,
) -> CfEvaluation:
    """Evaluate phi(t), the matching normal CF, and all three bounds at one t."""
    return evaluate_cf_grid(m, [t], tol=tol)[0]
