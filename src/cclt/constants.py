"""Certified constant pipeline and normal-approximation error bounds.

The headline inequality certified by this package bounds the Kolmogorov
distance between the standardized permutation statistic and the standard
normal law by a clipped second-moment functional:

    Delta <= C1 / sigma2 * gamma(C2 / sigma),        C1 = 15.84, C2 = 0.65,

together with its Lyapunov-type corollary

    Delta <= 164.6 / ((n - 1) sigma^3) * sum |at|^3.

``theorem_constants`` reproduces the (C1, C2) pair from first principles out
of five free inputs (w, m, C4, C5, C6):

    C3        = 27 C4^2 / (4 (27 C4^2 - m + 1)),
    theta_l   = (m - l)/(4m) * (1 - 1/(4 C5 C6))            for l in {2, 3, 4},
    thetat_l  = sqrt(1 - 2 theta_l),
    D_l       = sqrt(pi) / (-log(2 theta_l) sqrt(theta_l))
                * (1 - sqrt(2 theta_l)/thetat_l * arcsin(thetat_l)),
    A_l       = per-term weights  e^2/(pi w) (-log 2 theta_2)/(4 thetat_2^2),
                e^3 (m-1)/(pi w m (m+1)) (-log 2 theta_3)/thetat_3^2,
                e^4 (-log 2 theta_4)/(2 pi w thetat_4^2),
    A_tail    = (1 + w) v(w) / (sqrt(2 pi) w),
    C7        = A_2 + A_3 + A_4 + A_tail C5,
    C8        = A_2 D_2/4 + A_3 D_3/2 + A_4 D_4/2 + A_tail 2 kappa C5 C6,
    C1        = max(C3, C5 C6, C7),
    C2        = max(C3 C4, 2 kappa C5 C6^2, C8) / C1.

With the canonical inputs (0.89, 1367, 7.915, 0.047, 33) this yields
C3 = 1.2992..., C1 <= 15.84, C2 <= 0.65 and C1*C2 <= 10.3.

``smoothing_bound`` evaluates the underlying smoothing inequality directly:
for any cutoff T > 0 and w in (0, 1),

    Delta <= 1/(pi w) * integral_0^T |phi(t) - exp(i t mu - sigma2 t^2/2)| / t dt
             + (1 + w) v(w) / (sqrt(2 pi) w sigma T),

where sigma T is the cutoff on the standardized frequency axis (the
remainder term scales with the peak density of the approximating normal,
hence the extra sigma).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import kappa, v_of_w
from .errors import ParameterError
from .exact import DeltaReport, enumerate_distribution, kolmogorov_distance
from .permanents import _cf_gap
from .permtables import ENUM_CAP
from .quadrature import adaptive_simpson_vec
from .scores import GammaProfile, ScoreMatrix, _as_profile, _row_pair_sums, _sampling_design, require_nondegenerate

# Published constants of the certified inequality and of its Lyapunov form.
THEOREM_C1 = 15.84
THEOREM_C2 = 0.65
LYAPUNOV_COEFFICIENT = 164.6


@dataclass(frozen=True)
class ThetaEntry:
    """Damping exponent bundle for one fixed-index count ell."""

    ell: int
    theta: float
    theta_tilde: float
    d_factor: float


@dataclass(frozen=True)
class ConstantsReport:
    """Every scalar produced by the constant pipeline."""

    kappa: float
    x0: float
    w: float
    v_w: float
    m: int
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    thetas: tuple[ThetaEntry, ...]
    c1: float
    c2: float
    c1_published: float = THEOREM_C1
    c2_published: float = THEOREM_C2

    def as_dict(self) -> dict:
        """The fields, with ``thetas`` as the ``theta`` mapping keyed by str(ell)."""
        report = asdict(self)
        report["theta"] = {str(entry.pop("ell")): entry for entry in report.pop("thetas")}
        return report


def _kernel_tail(w: float, v_w: float) -> float:
    """The smoothing kernel's tail term (1 + w) v(w) / (sqrt(2 pi) w), given v_w = v(w)."""
    return (1.0 + w) * v_w / (math.sqrt(2.0 * math.pi) * w)


def theorem_constants(
    w: float = 0.89,
    m: int = 1367,
    c4: float = 7.915,
    c5: float = 0.047,
    c6: float = 33.0,
) -> ConstantsReport:
    """Run the constant pipeline for the inputs (w, m, C4, C5, C6).

    Raises ``ParameterError`` naming the violated inequality if any input
    leaves its admissible region (w in (0,1); m integer >= 4;
    sqrt((m-1)/27) < C4; C5*C6 > 1/4; every theta_l in (0, 1/2)).
    """
    if not 0.0 < w < 1.0:
        raise ParameterError(f"w in (0, 1) violated: w = {w}")
    if int(m) != m or m < 4:
        raise ParameterError(f"m integer >= 4 violated: m = {m}")
    m = int(m)
    if not math.sqrt((m - 1) / 27.0) < c4:
        raise ParameterError(f"sqrt((m-1)/27) < C4 violated: sqrt = {math.sqrt((m - 1) / 27.0)}, C4 = {c4}")
    if not c5 * c6 > 0.25:
        raise ParameterError(f"C5*C6 > 1/4 violated: C5*C6 = {c5 * c6}")

    kap, x0 = kappa()
    v_w = v_of_w(w)
    c3 = 27.0 * c4 * c4 / (4.0 * (27.0 * c4 * c4 - m + 1.0))

    thetas = []
    for ell in (2, 3, 4):
        theta = (m - ell) / (4.0 * m) * (1.0 - 1.0 / (4.0 * c5 * c6))
        if not 0.0 < theta < 0.5:
            raise ParameterError(f"theta_{ell} in (0, 1/2) violated: theta_{ell} = {theta}")
        theta_tilde = math.sqrt(1.0 - 2.0 * theta)
        d_factor = (
            math.sqrt(math.pi)
            / (-math.log(2.0 * theta) * math.sqrt(theta))
            * (1.0 - math.sqrt(2.0 * theta) / theta_tilde * math.asin(theta_tilde))
        )
        thetas.append(ThetaEntry(ell=ell, theta=theta, theta_tilde=theta_tilde, d_factor=d_factor))
    th2, th3, th4 = thetas

    pi_w = math.pi * w
    a2 = math.e**2 / pi_w * (-math.log(2.0 * th2.theta)) / (4.0 * th2.theta_tilde**2)
    a3 = (
        math.e**3
        * (m - 1.0)
        / (pi_w * m * (m + 1.0))
        * (-math.log(2.0 * th3.theta))
        / th3.theta_tilde**2
    )
    a4 = math.e**4 * (-math.log(2.0 * th4.theta)) / (2.0 * pi_w * th4.theta_tilde**2)
    a_tail = _kernel_tail(w, v_w)

    c7 = a2 + a3 + a4 + a_tail * c5
    c8 = (
        a2 * th2.d_factor / 4.0
        + a3 * th3.d_factor / 2.0
        + a4 * th4.d_factor / 2.0
        + a_tail * 2.0 * kap * c5 * c6
    )
    c1 = max(c3, c5 * c6, c7)
    c2 = max(c3 * c4, 2.0 * kap * c5 * c6 * c6, c8) / c1
    return ConstantsReport(
        kappa=kap,
        x0=x0,
        w=w,
        v_w=v_w,
        m=m,
        c3=c3,
        c4=c4,
        c5=c5,
        c6=c6,
        c7=c7,
        c8=c8,
        thetas=tuple(thetas),
        c1=c1,
        c2=c2,
    )


@dataclass(frozen=True)
class BoundReport:
    """Theorem and Lyapunov bounds for one matrix, plus the exact distance."""

    n: int
    mu: float
    sigma2: float
    gamma_at: float
    bound: float
    lyapunov_bound: float
    delta_report: DeltaReport | None
    slack: float | None

    def as_dict(self) -> dict:
        """The fields, with ``delta_report`` under the ``delta`` key."""
        report = asdict(self)
        report["delta"] = report.pop("delta_report")
        return report


def berry_esseen_bound(
    m: ScoreMatrix | GammaProfile,
    enum_cap: int = ENUM_CAP,
    attach_delta: bool = True,
) -> BoundReport:
    """Evaluate Delta <= (C1/sigma2) gamma(C2/sigma) plus the Lyapunov form.

    When n <= ``enum_cap`` (default ``permtables.ENUM_CAP``) and
    ``attach_delta`` holds, the exact distance is attached together with the
    slack bound - Delta; both bounds dominate the exact distance for every
    matrix.
    """
    profile = _as_profile(m)
    sigma2 = require_nondegenerate(profile.sigma2)
    sigma = math.sqrt(sigma2)
    gamma_at = profile.gamma(THEOREM_C2 / sigma)
    bound = THEOREM_C1 / sigma2 * gamma_at
    lyapunov = LYAPUNOV_COEFFICIENT / ((profile.n - 1) * sigma**3) * float(
        (np.abs(profile.a_tilde) ** 3).sum()
    )
    delta_report = None
    slack = None
    if attach_delta and profile.n <= enum_cap:
        delta_report = kolmogorov_distance(enumerate_distribution(profile, enum_cap=enum_cap))
        slack = bound - delta_report.delta
    return BoundReport(
        n=profile.n,
        mu=profile.mu,
        sigma2=sigma2,
        gamma_at=gamma_at,
        bound=bound,
        lyapunov_bound=lyapunov,
        delta_report=delta_report,
        slack=slack,
    )


def sampling_bound_specialized(values, m_draw: int) -> float:
    """Without-replacement specialisation of the theorem bound.

    For the sampling design with value vector c and draw size m,

        (C1/sigma2) gamma(C2/sigma)
            = 2 C1 m (n - m) / (n^2 (n-1) sigma2)
              * sum over ordered pairs r != s of
                (c_r - c_s)^2 min(1, C2/sigma |c_r - c_s|),

    because exactly 2 m (n - m) of the row pairs contribute each column-pair
    difference; sigma2 is the design's closed form (``from_sampling``), and a
    degenerate design raises ``DegenerateMatrixError``.  The pair sum is the
    row-pair window sum of the 2 x n matrix with rows c and 0 at the cutoff
    sigma/C2, in O(n log n) time.  Its one row pair is one chunk of
    ``_row_pair_sums``: about 21 length-n temporaries (169 MB at n = 10^6).
    Must agree with the generic bound on the induced matrix.
    """
    c, _, sigma2 = _sampling_design(values, m_draw)
    n = c.size
    sigma2 = require_nondegenerate(sigma2)
    sigma = math.sqrt(sigma2)
    cubes, squares = _row_pair_sums(np.vstack([c, 0.0 * c]), np.array([sigma / THEOREM_C2]))
    total = 2.0 * (THEOREM_C2 / sigma * cubes[0] + squares[0])  # ordered pairs: twice s < r
    return 2.0 * THEOREM_C1 * m_draw * (n - m_draw) / (n * n * (n - 1) * sigma2) * total


def smoothing_bound(
    m: ScoreMatrix | GammaProfile,
    w: float,
    T: float,
    tol: float = 1e-8,
) -> float:
    """Direct smoothing-inequality bound on the exact distance.

    Integrates |phi(t) - exp(i t mu - sigma2 t^2/2)| / t over [0, T] by
    adaptive quadrature (the integrand extends continuously by 0 at t = 0
    since the difference is O(t^2)) and adds the kernel remainder
    (1 + w) v(w) / (sqrt(2 pi) w sigma T).  Dominates the exact distance for
    every w in (0, 1) and finite T > 0.  Raises ``ConvergenceError`` when the
    quadrature does not converge, ``CapExceededError`` when n >
    ``permanents.PERM_CAP``.
    """
    if not 0.0 < T < math.inf:
        raise ParameterError(f"T must be positive and finite, got {T}")
    profile = _as_profile(m)
    sigma2 = require_nondegenerate(profile.sigma2)
    remainder = _kernel_tail(w, v_of_w(w)) / (math.sqrt(sigma2) * T)  # v_of_w checks w

    def integrand(ts: np.ndarray) -> np.ndarray:
        return np.divide(_cf_gap(profile, ts), ts, out=np.zeros(ts.shape), where=ts != 0.0)

    integral = adaptive_simpson_vec(integrand, 0.0, T, tol=tol)
    return float(integral / (math.pi * w) + remainder)
