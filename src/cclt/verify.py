"""One check function per paper claim, and the seeded batteries of ``cclt verify``.

A check takes its instances (matrices, (profile, t-grid) pairs, ...) and a
tolerance, computes the raw violation of its claim on every instance, with no
allowance folded into the formula, and returns a ``CheckResult`` that passes
iff the worst violation is at most the tolerance and names the instance where
each violation peaked.  The ``verify`` suites run small corpora derived from
the seed through these functions at their own tolerances; the acceptance
suite (``tests/test_acceptance.py``) runs its larger corpora through the same
functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .analytic import damped_moment_integrals, kappa, taylor_remainder_check, v_of_w
from .constants import berry_esseen_bound, sampling_bound_specialized, smoothing_bound, theorem_constants
from .errors import ParameterError, _finite, _seed
from .exact import enumerate_distribution, kolmogorov_distance, monte_carlo_delta
from .identity import (
    ComplexScoreMatrix,
    _identity_lhs,
    beta_quadruple,
    f_residual,
    identity_check,
    identity_terms,
    swap_identity_check,
)
from .permanents import (
    _cf_gap,
    cf_diff_bound_closed_grid,
    cf_diff_bound_integral_grid,
    charfn_bound_grid,
    charfn_grid,
    gauss_cf,
    restricted_sum_grid,
)
from .scores import GammaProfile, ScoreMatrix, from_sampling

SUITE_NAMES = ("identity", "bounds", "constants", "cf", "all")


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check; ``worst`` (not reported) maps each violation's detail key to its worst instance."""

    name: str
    passed: bool
    detail: dict
    worst: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed), "detail": dict(self.detail)}


class _Worst:
    """Running maximum of one violation and the instance where it occurred (NaN sticks)."""

    def __init__(self, start: float = -math.inf):
        self.value, self.where = start, "no instance"

    def add(self, value, where: str) -> bool:
        value = float(value)
        if value > self.value or math.isnan(value):
            self.value, self.where = value, where
            return True
        return False


def _result(name: str, parts: dict) -> CheckResult:
    """``parts`` maps each detail key to its (running worst, tolerance)."""
    return CheckResult(
        name,
        all(w.value <= tol for w, tol in parts.values()),
        {key: w.value for key, (w, _) in parts.items()},
        {key: w.where for key, (w, _) in parts.items()},
    )


def _at(i: int, m, **where) -> str:
    return ", ".join([f"instance {i} (n = {m.n})"] + [f"{k} = {v:.6g}" for k, v in where.items()])


def t_grids(matrices, span: float, count: int) -> list:
    """(profile, linspace(-span/sigma, span/sigma, count)) for each matrix."""
    out = []
    for m in matrices:
        profile = GammaProfile(m)
        sigma = math.sqrt(profile.sigma2)
        out.append((profile, np.linspace(-span / sigma, span / sigma, count)))
    return out


def restricted_instances(matrices, rng: np.random.Generator, ts):
    """(profile, cols, rows, ts) with ell = 0..4 random rows and columns removed, drawn per matrix."""
    for m in matrices:
        profile = GammaProfile(m)
        for ell in range(5):
            cols = rng.choice(np.arange(1, m.n + 1), size=ell, replace=False).tolist()
            rows = rng.choice(np.arange(1, m.n + 1), size=ell, replace=False).tolist()
            yield profile, cols, rows, ts


# ---------------------------------------------------------------------------
# constants


def check_kappa() -> CheckResult:
    kap, x0 = kappa()
    err_k = abs(kap - 0.09916191)
    err_x = abs(x0 - 3.99589)
    return CheckResult(
        "kappa_and_maximizer",
        err_k <= 1e-7 and err_x <= 1e-4,
        {"kappa": kap, "x0": x0, "kappa_err": err_k, "x0_err": err_x},
    )


def check_cubic_correction(xs, tol: float) -> CheckResult:
    kap, _ = kappa()
    worst = _Worst()
    worst.add(np.max(np.cos(xs) - 1.0 + xs * xs / 2.0 - kap * np.abs(xs) ** 3), "the x grid")
    return _result("cubic_correction_inequality", {"max_violation": (worst, tol)})


def check_v_of_w() -> CheckResult:
    v = v_of_w(0.89)
    err = abs(v - 5.329260)
    return CheckResult("smoothing_threshold_value", err <= 1e-5, {"v": v, "err": err})


def check_pipeline() -> CheckResult:
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


def check_kernel_moments(cs, tol: float) -> CheckResult:
    worst = _Worst(-1.0)
    for c in cs:
        mi = damped_moment_integrals(c)
        worst.add(max(mi.i1_numeric_residual, mi.i2_numeric_residual), f"c = {c}")
    return _result("kernel_moment_closed_forms", {"max_residual": (worst, tol)})


def check_taylor(instances, tol: float) -> CheckResult:
    """Taylor remainder inequality at each (x, k)."""
    worst = _Worst()
    for x, k in instances:
        lhs, rhs = taylor_remainder_check(x, k)
        worst.add(lhs - rhs, f"x = {x:.6g}, k = {k}")
    return _result("taylor_remainder_inequality", {"max_violation": (worst, tol)})


# ---------------------------------------------------------------------------
# identities (complex matrices)


def check_permanent_identity(matrices, tol: float, quad_tol: float = 1e-10) -> CheckResult:
    worst = _Worst(-1.0)
    for i, y in enumerate(matrices):
        worst.add(identity_check(y, tol=quad_tol).residual, _at(i, y))
    return _result("permanent_identity", {"max_residual": (worst, tol)})


def check_pointwise_identity(matrices, tol: float) -> CheckResult:
    worst = _Worst(-1.0)
    for i, y in enumerate(matrices):
        for u in (0.0, 0.25, 0.5, 0.75, 1.0):
            worst.add(f_residual(y, u), _at(i, y, u=u))
    return _result("pointwise_derivative_identity", {"max_residual": (worst, tol)})


def check_beta_routes(matrices, tol: float) -> CheckResult:
    """Relative gap between the pair-sum and quadruple-sum beta."""
    worst = _Worst(-1.0)
    for i, y in enumerate(matrices):
        pair = identity_terms(y).beta
        worst.add(abs(pair - beta_quadruple(y)) / max(1e-30, abs(pair)), _at(i, y))
    return _result("beta_two_routes", {"max_rel_residual": (worst, tol)})


def check_swap_identity(matrices, tol: float) -> CheckResult:
    worst = _Worst(-1.0)
    for i, y in enumerate(matrices):
        n = y.n
        for j, k in [(1, 2), (1, n)] if n == 2 else [(1, 2), (1, n), (2, n)]:
            worst.add(swap_identity_check(y, j, k), _at(i, y, j=j, k=k))
    return _result("index_swap_identity", {"max_residual": (worst, tol)})


def check_cf_specialization(matrices, tol: float) -> CheckResult:
    """alpha, beta and the identity's left side at Y = i t A against mu, sigma2 and phi - gauss."""
    worst = _Worst(-1.0)
    for i, m in enumerate(matrices):
        profile = GammaProfile(m)
        for t in (0.3, 0.8):
            y = ComplexScoreMatrix(1j * t * m.a)
            terms = identity_terms(y)
            lhs = complex(_identity_lhs(y, terms))
            expected = charfn_grid(m, [t])[0] - gauss_cf(profile, t)
            gaps = (abs(terms.alpha - 1j * t * profile.mu), abs(terms.beta + profile.sigma2 * t * t), abs(lhs - expected))
            worst.add(max(gaps), _at(i, m, t=t))
    return _result("cf_specialization", {"max_residual": (worst, tol)})


# ---------------------------------------------------------------------------
# characteristic-function bounds on (profile, t-grid) instances


def check_modulus_bound(instances, tol: float) -> CheckResult:
    worst = _Worst()
    for i, (profile, ts) in enumerate(instances):
        slack = np.abs(charfn_grid(profile.matrix, ts)) - charfn_bound_grid(profile, ts)
        worst.add(slack.max(), _at(i, profile))
    return _result("cf_modulus_bound", {"max_violation": (worst, tol)})


def check_modulus_equality(instances, tol: float) -> CheckResult:
    worst = _Worst()
    for i, (profile, ts) in enumerate(instances):
        gap = np.abs(np.abs(charfn_grid(profile.matrix, ts)) - charfn_bound_grid(profile, ts))
        worst.add(gap.max(), _at(i, profile))
    return _result("cf_modulus_equality_2x2", {"max_gap": (worst, tol)})


def check_cf_difference_bounds(instances, tol: float, quad_tol: float = 1e-10) -> CheckResult:
    """|phi - gauss| under the integral, closed and (n >= 6) simplified bounds; integral under closed.

    The two integral-form violations are held to ``quad_tol``, the closed forms to ``tol``.
    """
    parts = {key: _Worst() for key in ("integral", "chain", "closed", "simplified")}
    for i, (profile, ts) in enumerate(instances):
        diffs = _cf_gap(profile, ts)
        integral = cf_diff_bound_integral_grid(profile, ts, tol=quad_tol)
        closed, simplified = cf_diff_bound_closed_grid(profile, ts)
        at = _at(i, profile)
        parts["integral"].add(np.max(diffs - integral), at)
        parts["chain"].add(np.max(integral - closed), at)
        parts["closed"].add(np.max(diffs - closed), at)
        if simplified is not None:
            parts["simplified"].add(np.max(diffs - simplified), at)
    tols = {"integral": quad_tol, "chain": quad_tol, "closed": tol, "simplified": tol}
    return _result(
        "cf_difference_bounds", {f"max_violation_{key}": (w, tols[key]) for key, w in parts.items()}
    )


def check_restricted_sums(instances, tol: float) -> CheckResult:
    """Restricted permutation sums under h_ell at each t of each (profile, cols, rows, ts)."""
    worst = _Worst()
    for i, (profile, cols, rows, ts) in enumerate(instances):
        lhs, rhs = restricted_sum_grid(profile, cols, rows, ts)
        j = int(np.argmax(lhs - rhs))
        worst.add(lhs[j] - rhs[j], _at(i, profile, ell=len(cols), t=ts[j]))
    return _result("restricted_sum_bound", {"max_violation": (worst, tol)})


# ---------------------------------------------------------------------------
# bounds on the Kolmogorov distance and the clipped moments (real matrices)


def check_theorem_domination(matrices, tol: float) -> CheckResult:
    """Exact Delta under the theorem bound and under the Lyapunov bound."""
    bound, lyapunov = _Worst(), _Worst()
    for i, m in enumerate(matrices):
        rep = berry_esseen_bound(m)
        at = _at(i, m)
        bound.add(rep.delta_report.delta - rep.bound, at)
        lyapunov.add(rep.delta_report.delta - rep.lyapunov_bound, at)
    return _result(
        "theorem_and_lyapunov_domination",
        {"max_violation_bound": (bound, tol), "max_violation_lyapunov": (lyapunov, tol)},
    )


def check_sandwich(matrices, tol: float) -> CheckResult:
    """Clipped-moment sandwich chains at x in {0.1, 1, 10}/sigma, relative to max(1, gamma(x))."""
    worst = _Worst()
    for i, m in enumerate(matrices):
        profile = GammaProfile(m)
        n = profile.n
        sigma = math.sqrt(profile.sigma2)
        for x in (0.1 / sigma, 1.0 / sigma, 10.0 / sigma):
            g = profile.gamma(x)
            gaps = [
                g - 16.0 * profile.gamma_tilde(x),
                4.0 * (profile.sigma2 - (n - 1) / (27.0 * x * x)) - g,
                g - min(4.0 * profile.sigma2, abs(x) * profile.delta),
            ]
            for y in (0.25, 0.5, 0.75):
                gaps.append((1.0 - y * y * ((n - 1) / n) ** 2) * profile.gamma_tilde(x * y) - g)
            worst.add(max(gaps) / max(1.0, g), _at(i, m, x=x))
    return _result("clipped_moment_sandwich", {"max_violation": (worst, tol)})


def check_gamma_shape(matrices, tol: float) -> CheckResult:
    """gamma nondecreasing from gamma(0) = 0 on [0, 5], and its split evaluation within 1e-10 of it."""
    worst = _Worst()
    for i, m in enumerate(matrices):
        profile = GammaProfile(m)
        xs = np.linspace(0.0, 5.0, 41)
        gs = profile.gamma_many(xs)
        split = profile.gamma_split_many(xs)
        at = _at(i, m)
        worst.add(np.max(np.diff(gs) * -1.0), at)
        worst.add(abs(gs[0]), at)
        worst.add(float(np.max(np.abs(split - gs))) - 1e-10 * float(np.max(gs)), at)
    return _result("gamma_shape", {"max_violation": (worst, tol)})


def check_smoothing(matrices, tol: float) -> CheckResult:
    """Exact Delta under the smoothing bound (w = 0.89, quadrature tol 1e-8) at T in {2, 10}/sigma."""
    worst = _Worst()
    for i, m in enumerate(matrices):
        profile = GammaProfile(m)
        sigma = math.sqrt(profile.sigma2)
        delta = kolmogorov_distance(enumerate_distribution(profile)).delta
        for cutoff in (2.0 / sigma, 10.0 / sigma):
            worst.add(delta - smoothing_bound(profile, 0.89, cutoff, tol=1e-8), _at(i, m, T=cutoff))
    return _result("smoothing_inequality", {"max_violation": (worst, tol)})


def check_sampling(designs, tol: float) -> CheckResult:
    """Closed-form moments and the specialised bound of each (values, m_draw) design, relative."""
    worst = _Worst(-1.0)
    for values, m_draw in designs:
        design = from_sampling(values, m_draw)
        profile = GammaProfile(design.matrix)
        special = sampling_bound_specialized(values, m_draw)
        bound = berry_esseen_bound(profile, attach_delta=False).bound
        gaps = (
            abs(profile.sigma2 - design.sigma2) / max(1.0, design.sigma2),
            abs(profile.mu - design.mu) / max(1.0, abs(design.mu)),
            abs(bound - special) / max(1.0, bound),
        )
        worst.add(max(gaps), f"n = {len(values)}, m = {m_draw}")
    return _result("sampling_specialization", {"max_rel_residual": (worst, tol)})


def check_monte_carlo(instances, tol: float) -> CheckResult:
    """Monte Carlo Delta within ``tol`` standard errors of the exact Delta at each (matrix, samples, seed).

    The detail is that of the instance with the largest gap in standard errors.
    """
    worst, detail = _Worst(), {}
    for i, (m, samples, seed) in enumerate(instances):
        profile = GammaProfile(m)
        exact = kolmogorov_distance(enumerate_distribution(profile)).delta
        mc = monte_carlo_delta(profile, samples, seed=seed)
        gap = abs(mc.delta - exact)
        if worst.add(gap / mc.std_error, _at(i, m, seed=seed)):
            detail = {"exact": exact, "monte_carlo": mc.delta, "gap": gap, "std_error": mc.std_error}
    return replace(_result("monte_carlo_consistency", {"gap_in_std_errors": (worst, tol)}), detail=detail)


# ---------------------------------------------------------------------------
# the seeded batteries of ``cclt verify``: each suite is a table of (check,
# corpus, tolerance), and each corpus draws from its own stream seed + k.


def _real(seed: int, ns, count: int, scales=(1.0,)) -> list:
    rng = np.random.default_rng(seed)
    return [ScoreMatrix(s * rng.standard_normal((n, n))) for n in ns for s in scales for _ in range(count)]


def _complex(seed: int, ns, count: int) -> list:
    rng = np.random.default_rng(seed)
    return [
        ComplexScoreMatrix(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
        for n in ns
        for _ in range(count)
    ]


def _identity_suite(seed: int, quad_tol: float) -> tuple:
    return (
        check_permanent_identity(_complex(seed, (2, 3, 4, 5), 3), 1e-9, quad_tol),
        check_pointwise_identity(_complex(seed + 1, (2, 3, 4, 5), 1), 1e-9),
        check_beta_routes(_complex(seed + 2, (2, 3, 4, 5, 6), 4), 1e-10),
        check_swap_identity(_complex(seed + 3, (2, 3, 4, 5), 1), 1e-10),
        check_cf_specialization(_real(seed + 4, (3, 4, 5), 1), 1e-9),
    )


def _bounds_suite(seed: int, quad_tol: float) -> tuple:
    rng = np.random.default_rng(seed + 12)
    designs = [(rng.standard_normal(n), m_draw) for n, m_draw in ((4, 2), (6, 3), (8, 5))]
    return (
        check_theorem_domination(_real(seed + 8, (3, 4, 5, 6, 7), 1, (0.1, 1.0, 10.0)), 1e-12),
        check_sandwich(_real(seed + 9, (3, 5, 7), 4), 1e-12),
        check_gamma_shape(_real(seed + 10, (3, 6), 1), 1e-12),
        check_smoothing(_real(seed + 11, (3, 4, 5), 1), 1e-8),
        check_sampling(designs, 1e-10),
        check_monte_carlo([(_real(seed + 13, (5,), 1)[0], 100_000, seed)], 4.0),
    )


def _constants_suite(seed: int, quad_tol: float) -> tuple:
    rng = np.random.default_rng(seed)
    taylor = [(rng.uniform(-20.0, 20.0), int(rng.integers(0, 7))) for _ in range(300)]
    return (
        check_kappa(),
        check_cubic_correction(np.linspace(-50.0, 50.0, 20001), 1e-12),
        check_v_of_w(),
        check_pipeline(),
        check_kernel_moments((0.01, 0.1, 0.25, 0.4, 0.49), 1e-6),
        check_taylor(taylor, 1e-12),
    )


def _cf_suite(seed: int, quad_tol: float) -> tuple:
    rng = np.random.default_rng(seed + 7)
    # Lazy: each matrix is drawn from the stream just before its index choices.
    matrices = (ScoreMatrix(rng.standard_normal((6, 6))) for _ in range(4))
    return (
        check_modulus_bound(t_grids(_real(seed + 5, (3, 4, 5, 6), 4), 10.0, 41), 1e-12),
        check_modulus_equality(t_grids([ScoreMatrix([[1.0, -1.0], [-1.0, 1.0]])], 8.0, 81), 1e-14),
        check_cf_difference_bounds(t_grids(_real(seed + 6, (3, 4, 6, 7), 1), 10.0, 21), 1e-12, quad_tol),
        check_restricted_sums(restricted_instances(matrices, rng, np.linspace(-8.0, 8.0, 17)), 1e-12),
    )


_SUITES = {"identity": _identity_suite, "bounds": _bounds_suite, "constants": _constants_suite, "cf": _cf_suite}


def run_suite(suite: str, seed: int = 0, quad_tol: float = 1e-10) -> dict:
    """Run one verification suite; returns a JSON-ready summary.

    ``seed`` must be an integer in [0, 2^64), as ``--seed``, and ``quad_tol``
    a finite positive number, as ``--quad-tol``; anything else raises
    ``ParameterError`` before any work.
    """
    if suite not in SUITE_NAMES:
        raise ParameterError(f"unknown suite {suite!r}; expected one of {', '.join(SUITE_NAMES)}")
    seed = _seed(seed)
    if not (_finite(quad_tol, "quad tolerance") > 0).all():
        raise ParameterError(f"quad tolerance must be positive, got {quad_tol}")
    names = ("identity", "bounds", "constants", "cf") if suite == "all" else (suite,)
    results = [r for name in names for r in _SUITES[name](seed, quad_tol)]
    return {
        "suite": suite,
        "seed": seed,
        "passed": all(r.passed for r in results),
        "checks": [r.as_dict() for r in results],
    }
