"""Seeded self-verification batteries behind the ``verify`` CLI subcommand.

Each check runs a deterministic corpus (derived from the configured seed)
through one family of identities or inequalities and reports the worst
residual or slack observed.  A check passes when every instance satisfies
its contract at the stated tolerance; the suite passes when all checks do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import damped_moment_integrals, kappa, taylor_remainder_check, v_of_w
from .constants import berry_esseen_bound, sampling_bound_specialized, smoothing_bound, theorem_constants
from .exact import enumerate_distribution, kolmogorov_distance, monte_carlo_delta
from .identity import (
    ComplexScoreMatrix,
    beta_quadruple,
    f_residual,
    identity_check,
    identity_terms,
    swap_identity_check,
)
from .permanents import (
    charfn_bound_grid,
    charfn_grid,
    evaluate_cf_grid,
    gauss_cf,
    restricted_sum_check,
)
from .scores import GammaProfile, ScoreMatrix, center, from_sampling

SUITE_NAMES = ("identity", "bounds", "constants", "cf", "all")


def _plain(value):
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    return value


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: dict

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "detail": {k: _plain(v) for k, v in self.detail.items()},
        }


def _rand_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> ScoreMatrix:
    return ScoreMatrix(scale * rng.standard_normal((n, n)))


def _rand_complex(rng: np.random.Generator, n: int) -> ComplexScoreMatrix:
    return ComplexScoreMatrix(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))


# ---------------------------------------------------------------------------
# constants suite


def _check_kappa(seed: int, quad_tol: float) -> CheckResult:
    kap, x0 = kappa()
    err_k = abs(kap - 0.09916191)
    err_x = abs(x0 - 3.99589)
    return CheckResult(
        "kappa_and_maximizer",
        err_k <= 1e-7 and err_x <= 1e-4,
        {"kappa": kap, "x0": x0, "kappa_err": err_k, "x0_err": err_x},
    )


def _check_kappa_inequality(seed: int, quad_tol: float) -> CheckResult:
    kap, _ = kappa()
    xs = np.linspace(-50.0, 50.0, 20001)
    lhs = np.cos(xs) - 1.0 + xs * xs / 2.0
    worst = float(np.max(lhs - kap * np.abs(xs) ** 3))
    return CheckResult("cubic_correction_inequality", worst <= 1e-12, {"max_violation": worst})


def _check_v_of_w(seed: int, quad_tol: float) -> CheckResult:
    v = v_of_w(0.89)
    err = abs(v - 5.329260)
    return CheckResult("smoothing_threshold_value", err <= 1e-5, {"v": v, "err": err})


def _check_pipeline(seed: int, quad_tol: float) -> CheckResult:
    rep = theorem_constants()
    ok = (
        abs(rep.c3 - 1.2992) <= 1e-3
        and rep.c1 <= 15.84
        and rep.c2 <= 0.65
        and rep.c1 * rep.c2 <= 10.3
        and all(0.0 < t.theta < 0.5 for t in rep.thetas)
    )
    return CheckResult(
        "constant_pipeline",
        ok,
        {"c3": rep.c3, "c1": rep.c1, "c2": rep.c2, "c1c2": rep.c1 * rep.c2},
    )


def _check_kernel_moments(seed: int, quad_tol: float) -> CheckResult:
    worst = -1.0
    for c in (0.01, 0.1, 0.25, 0.4, 0.49):
        mi = damped_moment_integrals(c)
        worst = max(worst, mi.i1_numeric_residual, mi.i2_numeric_residual)
    return CheckResult("kernel_moment_closed_forms", worst <= 1e-6, {"max_residual": worst})


def _check_taylor(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(300):
        x = rng.uniform(-20.0, 20.0)
        k = int(rng.integers(0, 7))
        lhs, rhs = taylor_remainder_check(x, k)
        worst = max(worst, lhs - rhs)
    return CheckResult("taylor_remainder_inequality", worst <= 1e-12, {"max_violation": worst})


# ---------------------------------------------------------------------------
# identity suite


def _check_permanent_identity(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = -1.0
    for n in (2, 3, 4, 5):
        for _ in range(3):
            chk = identity_check(_rand_complex(rng, n), tol=quad_tol)
            worst = max(worst, chk.residual)
    return CheckResult("permanent_identity", worst <= 1e-9, {"max_residual": worst})


def _check_pointwise_identity(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 1)
    worst = -1.0
    for n in (2, 3, 4, 5):
        y = _rand_complex(rng, n)
        for u in (0.0, 0.25, 0.5, 0.75, 1.0):
            worst = max(worst, f_residual(y, u))
    return CheckResult("pointwise_derivative_identity", worst <= 1e-9, {"max_residual": worst})


def _check_beta_routes(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 2)
    worst = -1.0
    for n in (2, 3, 4, 5, 6):
        for _ in range(4):
            y = _rand_complex(rng, n)
            pair = identity_terms(y).beta
            quad = beta_quadruple(y)
            worst = max(worst, abs(pair - quad) / max(1.0, abs(pair)))
    return CheckResult("beta_two_routes", worst <= 1e-10, {"max_rel_residual": worst})


def _check_swap_identity(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 3)
    worst = -1.0
    for n in (2, 3, 4, 5):
        y = _rand_complex(rng, n)
        pairs = [(1, 2), (1, n)] if n == 2 else [(1, 2), (1, n), (2, n)]
        for j, k in pairs:
            worst = max(worst, swap_identity_check(y, j, k))
    return CheckResult("index_swap_identity", worst <= 1e-10, {"max_residual": worst})


def _check_cf_specialization(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 4)
    worst = -1.0
    for n in (3, 4, 5):
        m = _rand_matrix(rng, n)
        stats = center(m)
        for t in (0.3, 0.8):
            y = ComplexScoreMatrix(1j * t * m.a)
            terms = identity_terms(y)
            worst = max(worst, abs(terms.alpha - 1j * t * stats.mu))
            worst = max(worst, abs(terms.beta + stats.sigma2 * t * t))
            chk = identity_check(y, tol=quad_tol)
            expected = charfn_grid(m, [t])[0] - gauss_cf(m, t)
            worst = max(worst, abs(chk.lhs - expected))
    return CheckResult("cf_specialization", worst <= 1e-9, {"max_residual": worst})


# ---------------------------------------------------------------------------
# cf suite


def _check_modulus_bound(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 5)
    worst = -math.inf
    for n in (3, 4, 5, 6):
        for _ in range(4):
            m = _rand_matrix(rng, n)
            sigma = math.sqrt(center(m).sigma2)
            ts = np.linspace(-10.0 / sigma, 10.0 / sigma, 41)
            slack = np.abs(charfn_grid(m, ts)) - charfn_bound_grid(m, ts)
            worst = max(worst, float(slack.max()))
    return CheckResult("cf_modulus_bound", worst <= 1e-12, {"max_violation": worst})


def _check_modulus_equality(seed: int, quad_tol: float) -> CheckResult:
    m = ScoreMatrix([[1.0, -1.0], [-1.0, 1.0]])
    ts = np.linspace(-4.0, 4.0, 81)
    gap = np.abs(np.abs(charfn_grid(m, ts)) - charfn_bound_grid(m, ts))
    worst = float(gap.max())
    return CheckResult("cf_modulus_equality_2x2", worst <= 1e-14, {"max_gap": worst})


def _check_cf_difference_bounds(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 6)
    worst_int = -math.inf
    worst_chain = -math.inf
    worst_simple = -math.inf
    for n in (3, 4, 6, 7):
        m = _rand_matrix(rng, n)
        profile = GammaProfile(m)
        sigma = math.sqrt(profile.stats.sigma2)
        ts = np.linspace(-10.0 / sigma, 10.0 / sigma, 21)
        for ev in evaluate_cf_grid(profile, ts, tol=quad_tol):
            diff = abs(ev.phi - ev.gauss)
            worst_int = max(worst_int, diff - ev.diff_bound_integral - quad_tol)
            worst_chain = max(worst_chain, ev.diff_bound_integral - ev.diff_bound_closed - quad_tol)
            if ev.diff_bound_closed_simplified is not None:
                worst_simple = max(worst_simple, diff - ev.diff_bound_closed_simplified)
    ok = worst_int <= 1e-12 and worst_chain <= 1e-12 and worst_simple <= 1e-12
    return CheckResult(
        "cf_difference_bounds",
        ok,
        {
            "max_violation_integral": worst_int,
            "max_violation_chain": worst_chain,
            "max_violation_simplified": worst_simple,
        },
    )


def _check_restricted_sums(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 7)
    worst = -math.inf
    for _ in range(4):
        profile = GammaProfile(_rand_matrix(rng, 6))
        for ell in range(5):
            cols = rng.choice(np.arange(1, 7), size=ell, replace=False).tolist()
            rows = rng.choice(np.arange(1, 7), size=ell, replace=False).tolist()
            for t in np.linspace(-8.0, 8.0, 17):
                lhs, rhs = restricted_sum_check(profile, cols, rows, float(t))
                worst = max(worst, lhs - rhs)
    return CheckResult("restricted_sum_bound", worst <= 1e-12, {"max_violation": worst})


# ---------------------------------------------------------------------------
# bounds suite


def _check_theorem_domination(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 8)
    worst_bound = -math.inf
    worst_lyap = -math.inf
    for n in (3, 4, 5, 6, 7):
        for scale in (0.1, 1.0, 10.0):
            m = _rand_matrix(rng, n, scale)
            rep = berry_esseen_bound(m)
            worst_bound = max(worst_bound, rep.delta_report.delta - rep.bound)
            worst_lyap = max(worst_lyap, rep.delta_report.delta - rep.lyapunov_bound)
    ok = worst_bound <= 1e-12 and worst_lyap <= 1e-12
    return CheckResult(
        "theorem_and_lyapunov_domination",
        ok,
        {"max_violation_bound": worst_bound, "max_violation_lyapunov": worst_lyap},
    )


def _check_sandwich(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 9)
    worst = -math.inf
    for n in (3, 5, 7):
        for _ in range(4):
            m = _rand_matrix(rng, n)
            profile = GammaProfile(m)
            stats = profile.stats
            sigma = math.sqrt(stats.sigma2)
            for x in (0.1 / sigma, 1.0 / sigma, 10.0 / sigma):
                g = profile.gamma(x)
                worst = max(worst, g - min(4.0 * stats.sigma2, abs(x) * stats.delta) - 1e-12 * g)
                worst = max(worst, 4.0 * (stats.sigma2 - (n - 1) / (27.0 * x * x)) - g - 1e-9 * abs(g))
                worst = max(worst, g - 16.0 * profile.gamma_tilde(x) - 1e-12 * g)
                for y in (0.25, 0.5, 0.75):
                    lower = (1.0 - y * y * ((n - 1) / n) ** 2) * profile.gamma_tilde(x * y)
                    worst = max(worst, lower - g - 1e-12 * abs(g))
    return CheckResult("clipped_moment_sandwich", worst <= 1e-12, {"max_violation": worst})


def _check_gamma_shape(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 10)
    worst = -math.inf
    for n in (3, 6):
        m = _rand_matrix(rng, n)
        profile = GammaProfile(m)
        xs = np.linspace(0.0, 5.0, 41)
        gs = profile.gamma_many(xs)
        worst = max(worst, float(np.max(np.diff(gs) * -1.0)))  # nondecreasing on x >= 0
        worst = max(worst, abs(gs[0]))
        split = profile.gamma_split_many(xs)
        worst = max(worst, float(np.max(np.abs(split - gs))) - 1e-10 * float(np.max(gs)))
    return CheckResult("gamma_shape", worst <= 1e-12, {"max_violation": worst})


def _check_smoothing(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 11)
    worst = -math.inf
    for n in (3, 4, 5):
        m = _rand_matrix(rng, n)
        sigma = math.sqrt(center(m).sigma2)
        delta = kolmogorov_distance(enumerate_distribution(m)).delta
        for cutoff in (2.0 / sigma, 10.0 / sigma):
            bound = smoothing_bound(m, 0.89, cutoff, tol=1e-8)
            worst = max(worst, delta - bound - 1e-8)
    return CheckResult("smoothing_inequality", worst <= 1e-12, {"max_violation": worst})


def _check_sampling(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 12)
    worst = -math.inf
    for n, m_draw in ((4, 2), (6, 3), (8, 5)):
        values = rng.standard_normal(n)
        design = from_sampling(values, m_draw)
        stats = center(design.matrix)
        worst = max(worst, abs(stats.sigma2 - design.sigma2) / max(1.0, design.sigma2))
        worst = max(worst, abs(stats.mu - design.mu) / max(1.0, abs(design.mu)))
        rep = berry_esseen_bound(design.matrix, attach_delta=False)
        special = sampling_bound_specialized(values, m_draw, design.sigma2)
        worst = max(worst, abs(rep.bound - special) / max(1.0, rep.bound))
    return CheckResult("sampling_specialization", worst <= 1e-10, {"max_rel_residual": worst})


def _check_mc_vs_exact(seed: int, quad_tol: float) -> CheckResult:
    rng = np.random.default_rng(seed + 13)
    m = _rand_matrix(rng, 5)
    exact = kolmogorov_distance(enumerate_distribution(m)).delta
    mc = monte_carlo_delta(m, 100_000, seed=seed)
    gap = abs(mc.delta - exact)
    return CheckResult(
        "monte_carlo_consistency",
        gap <= 4.0 * mc.std_error,
        {"exact": exact, "monte_carlo": mc.delta, "gap": gap, "std_error": mc.std_error},
    )


_SUITES: dict[str, tuple] = {
    "constants": (
        _check_kappa,
        _check_kappa_inequality,
        _check_v_of_w,
        _check_pipeline,
        _check_kernel_moments,
        _check_taylor,
    ),
    "identity": (
        _check_permanent_identity,
        _check_pointwise_identity,
        _check_beta_routes,
        _check_swap_identity,
        _check_cf_specialization,
    ),
    "cf": (
        _check_modulus_bound,
        _check_modulus_equality,
        _check_cf_difference_bounds,
        _check_restricted_sums,
    ),
    "bounds": (
        _check_theorem_domination,
        _check_sandwich,
        _check_gamma_shape,
        _check_smoothing,
        _check_sampling,
        _check_mc_vs_exact,
    ),
}


def run_suite(suite: str, seed: int = 0, quad_tol: float = 1e-10) -> dict:
    """Run one verification suite; returns a JSON-ready summary."""
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITE_NAMES)}")
    names = ("identity", "bounds", "constants", "cf") if suite == "all" else (suite,)
    results = [fn(seed, quad_tol) for name in names for fn in _SUITES[name]]
    return {
        "schema": 1,
        "suite": suite,
        "seed": seed,
        "passed": all(r.passed for r in results),
        "checks": [r.as_dict() for r in results],
    }
