"""Scalar analytic facts used by the bound pipeline.

Four self-contained items live here:

* ``kappa`` -- the sharp constant in  cos(x) - 1 + x^2/2 <= kappa * |x|^3,
  i.e. the maximum of (cos(x) - 1 + x^2/2)/|x|^3 (with 0/0 := 0), attained
  at a unique point near 4;
* ``taylor_remainder_check`` -- the complex-exponential Taylor remainder
  inequality |e^{ix} - sum_{j<=k} (ix)^j/j!| <= 2 |x|^k/k! min(1, |x|/(2k+2));
* ``v_of_w`` -- the smoothing-kernel threshold solving
  (1+w)/2 = (2/pi) * integral_0^v sin^2(x)/x^2 dx, through the closed form
  Si(2v) - sin^2(v)/v with the module's own sine integral ``_si``;
* ``damped_moment_integrals`` -- closed forms of the first and second
  tu-moments of the Gaussian damping kernel exp(-c t^2 u^2 - (1-u^2) t^2/2)
  over (t, u) in [0, inf) x [0, 1], cross-checked by quadrature of the
  truncated double integral, factored into a u-integral (adaptive Simpson)
  times an s-integral (Gauss-Legendre).

The module needs only numpy, so ``kappa``, ``v_of_w`` and the constant
pipeline built on them run without importing scipy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, _finite
from .quadrature import adaptive_simpson_vec, gauss_legendre

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Bisection for v(w) stops once its bracket is this narrow.
_V_TOL = 1e-9
# Absolute tolerance of each quadrature cross-check of the kernel moments.
_MOMENT_TOL = 1e-8
# Si(x) sums its power series up to here, until a term falls under _EPS of the
# sum, and the continued fraction of E1(ix) above.
_SI_SERIES_MAX = 2.0
_EPS = 2.0**-52


def _kappa_objective(x: float) -> float:
    return (math.cos(x) - 1.0 + 0.5 * x * x) / abs(x) ** 3 if x != 0.0 else 0.0


@lru_cache(maxsize=1)
def kappa() -> tuple[float, float]:
    """Sharp cubic-correction constant and its maximizing point.

    Golden-section refinement over [3, 5] (the objective is unimodal there)
    pinned by a dense global scan of (0, 50]; outside that window the
    objective is dominated analytically: for x <= 0.5 it is at most x/24 and
    for x >= 20 at most (x^2/2 + 2)/x^3, both far below the maximum.
    Returns (kappa, x0) with kappa accurate to ~1e-12 and x0 to ~1e-8.
    """
    xs = np.linspace(1e-3, 50.0, 100_001)
    vals = (np.cos(xs) - 1.0 + 0.5 * xs * xs) / xs**3
    coarse = float(xs[int(np.argmax(vals))])
    if not 3.0 < coarse < 5.0:
        raise RuntimeError(f"global scan located the maximum at {coarse}, outside [3, 5]")

    lo, hi = 3.0, 5.0
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = _kappa_objective(x1), _kappa_objective(x2)
    while hi - lo > 1e-13:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _kappa_objective(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _kappa_objective(x1)
    x0 = 0.5 * (lo + hi)
    k = _kappa_objective(x0)
    if float(vals.max()) > k + 1e-12:
        raise RuntimeError("global scan exceeds the refined maximum; bracket is wrong")
    return k, x0


def taylor_remainder_check(x: float, k: int) -> tuple[float, float]:
    """Evaluate both sides of the exp(ix) Taylor remainder inequality.

    Returns (lhs, rhs) with lhs = |e^{ix} - sum_{j=0}^{k} (ix)^j / j!| and
    rhs = 2 |x|^k / k! * min(1, |x| / (2(k+1))); lhs <= rhs holds for every
    real x and integer k >= 0; a non-finite x raises ``ParameterError``.
    """
    _finite(x, "x")
    if k < 0 or int(k) != k:
        raise ParameterError(f"k must be a nonnegative integer, got {k}")
    term = 1.0 + 0.0j
    partial = 1.0 + 0.0j
    for j in range(1, int(k) + 1):
        term *= 1j * x / j
        partial += term
    lhs = abs(cmath.exp(1j * x) - partial)
    rhs = 2.0 * abs(x) ** k / math.factorial(int(k)) * min(1.0, abs(x) / (2.0 * (k + 1)))
    return lhs, rhs


def _si(x: float) -> float:
    """Sine integral Si(x) = integral_0^x sin(t)/t dt, for x >= 0.

    Up to ``_SI_SERIES_MAX`` the power series sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!).
    Above it Si(x) = pi/2 + Im E1(ix) (Abramowitz & Stegun 5.2.23), with the
    continued fraction E1(ix) = e^(-ix) / (1 + ix - 1^2 / (3 + ix - 2^2 / (5 + ix - ...)))
    (Numerical Recipes 6.9) summed from its N-th term back: N = 8 + 200/x
    keeps N x >= 200, where the truncation error, about exp(-2 sqrt(2 N x)),
    is under 1e-17.  The backward sum does not accumulate the rounding of a
    forward (Lentz) product.  Tested against 50-digit values on (0, 2e9] to 2e-15.
    """
    if x <= _SI_SERIES_MAX:
        term = total = x
        k = 1
        while abs(term) > _EPS * total:
            term *= -x * x / (2 * k * (2 * k + 1))
            total += term / (2 * k + 1)
            k += 1
        return total
    n = 8 + int(200.0 / x)
    tail = complex(2 * n + 1, x)
    for k in range(n, 0, -1):
        tail = complex(2 * k - 1, x) - k * k / tail
    return 0.5 * math.pi + (complex(math.cos(x), -math.sin(x)) / tail).imag


def _sinc_sq_integral(v: float) -> float:
    """integral_0^v sin^2(x)/x^2 dx = Si(2v) - sin^2(v)/v (by parts), for v > 0."""
    s = math.sin(v)
    return _si(2.0 * v) - s * s / v


@lru_cache(maxsize=64)
def v_of_w(w: float) -> float:
    """Threshold v solving (1+w)/2 = (2/pi) * integral_0^v sin^2(x)/x^2 dx.

    The integrand is bounded by 1 with a removable singularity at 0 and total
    mass pi/2, so the left side sweeps (0, 1): a solution exists and is
    unique for w in (0, 1).  Solved by bracketing (doubling from 8) and
    bisection on the closed form Si(2v) - sin^2(v)/v of the integral.  v grows
    like 2/(pi (1 - w)); past 1e9 (1 - w below about 6e-10) ``ParameterError``.
    Cached per w, as ``kappa`` is, so repeated smoothing bounds bisect once.
    """
    if not 0.0 < w < 1.0:
        raise ParameterError(f"w must lie in (0, 1), got {w}")
    target = (1.0 + w) / 2.0 * math.pi / 2.0

    lo = 0.0
    hi = 8.0
    while _sinc_sq_integral(hi) < target:
        hi *= 2.0
        if hi > 1e9:
            raise ParameterError(f"w = {w} puts the smoothing threshold v(w) above 1e9")
    while hi - lo > _V_TOL:
        mid = 0.5 * (lo + hi)
        if _sinc_sq_integral(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class MomentIntegrals:
    """Closed forms of the damped kernel moments with quadrature residuals."""

    i1: float
    i2: float
    i1_numeric_residual: float
    i2_numeric_residual: float


def _kernel_moment(c: float, power: int, tol: float) -> float:
    """The truncated double integral of ``damped_moment_integrals`` as U * J.

    With t = s / sqrt(rate(u)), J = integral_0^sqrt(45) s^p exp(-s^2) ds (Gauss-Legendre)
    and U = integral_0^1 u^p rate(u)^(-(p+1)/2) du (adaptive Simpson to tol / (50 J)).
    """

    def u_factor(us: np.ndarray) -> np.ndarray:
        return us**power * (c * us * us + (1.0 - us * us) / 2.0) ** (-(power + 1) / 2.0)

    j = gauss_legendre(lambda s: s**power * np.exp(-s * s), 0.0, math.sqrt(45.0), tol=tol / 50.0)
    return adaptive_simpson_vec(u_factor, 0.0, 1.0, tol=tol / (50.0 * j)) * j


def damped_moment_integrals(c: float) -> MomentIntegrals:
    """First and second tu-moments of exp(-c t^2 u^2 - (1-u^2) t^2 / 2).

    For c in (0, 1/2) and ct = sqrt(1 - 2c):

        I1 = -log(2c) / (2 ct^2)
        I2 = sqrt(pi) / (2 ct^2 sqrt(c)) * (1 - sqrt(2c)/ct * arcsin(ct))

    Both are cross-checked against quadrature of the defining double
    integrals, truncated where the Gaussian factor is e^-45 (at
    t = sqrt(45 / rate(u)), rate(u) = c u^2 + (1 - u^2)/2) and factored by
    ``_kernel_moment``; the residuals are returned alongside.  Raises
    ``ConvergenceError`` when a quadrature does not converge.
    """
    if not 0.0 < c < 0.5:
        raise ParameterError(f"c must lie in (0, 1/2), got {c}")
    ct_sq = 1.0 - 2.0 * c
    ct = math.sqrt(ct_sq)
    i1 = -math.log(2.0 * c) / (2.0 * ct_sq)
    i2 = math.sqrt(math.pi) / (2.0 * ct_sq * math.sqrt(c)) * (
        1.0 - math.sqrt(2.0 * c) / ct * math.asin(ct)
    )
    i1_num = _kernel_moment(c, 1, _MOMENT_TOL)
    i2_num = _kernel_moment(c, 2, _MOMENT_TOL)
    return MomentIntegrals(
        i1=i1,
        i2=i2,
        i1_numeric_residual=abs(i1 - i1_num),
        i2_numeric_residual=abs(i2 - i2_num),
    )
