"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line once its criterion holds (run with
``pytest -s`` to see the lines as they complete; any failure surfaces the
offending instance through the assertion message).  Every paper claim is
checked by its one function in ``cclt.verify``, the same one ``cclt verify``
runs on its smaller corpora; only the corpora and tolerances are set here.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import conftest

from cclt import (
    ComplexScoreMatrix,
    GammaProfile,
    ScoreMatrix,
    enumerate_distribution,
)
from cclt.analytic import kappa
from cclt.verify import (
    check_beta_routes,
    check_cf_difference_bounds,
    check_kappa,
    check_kernel_moments,
    check_modulus_bound,
    check_modulus_equality,
    check_monte_carlo,
    check_permanent_identity,
    check_pipeline,
    check_pointwise_identity,
    check_restricted_sums,
    check_sandwich,
    check_smoothing,
    check_theorem_domination,
    check_v_of_w,
    restricted_instances,
    t_grids,
)


def report(line: str) -> None:
    # Collected by conftest's terminal-summary hook so that one line per
    # criterion shows up in every pytest run; also printed live for -s runs.
    conftest.acceptance_lines.append(f"ACCEPTANCE {line}")
    print(f"ACCEPTANCE {line}")


def holds(result) -> dict:
    assert result.passed, f"{result.name} {result.detail} at {result.worst}"
    return result.detail


def matrices(seed: int, n: int, count: int, scale: float = 1.0):
    rng = np.random.default_rng(seed)
    return [ScoreMatrix(scale * rng.standard_normal((n, n))) for _ in range(count)]


def complex_matrices(seed: int, n: int, count: int):
    rng = np.random.default_rng(seed)
    return [
        ComplexScoreMatrix(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
        for _ in range(count)
    ]


def test_criterion_1_constants_reproduction():
    start = time.perf_counter()
    kappa.cache_clear()  # recompute kappa so that the timing is honest
    k, v, c = (holds(check()) for check in (check_kappa, check_v_of_w, check_pipeline))
    elapsed = time.perf_counter() - start

    assert elapsed < 1.0, f"constants pipeline took {elapsed:.2f}s"
    report(
        f"1: PASS - constants kappa={k['kappa']:.8f} x0={k['x0']:.5f} v(0.89)={v['v']:.6f} "
        f"C1={c['c1']:.4f} C2={c['c2']:.4f} C1*C2={c['c1c2']:.4f} in {elapsed:.2f}s"
    )


def test_criterion_2_permanent_identity():
    corpus = [y for n in (2, 3, 4, 5, 6) for y in complex_matrices(1000 + n, n, 50)]
    identity = holds(check_permanent_identity(corpus, 1e-8, quad_tol=1e-10))
    pointwise = holds(check_pointwise_identity(corpus, 1e-9))
    report(
        f"2: PASS - permanent identity residual<={identity['max_residual']:.2e}, "
        f"pointwise residual<={pointwise['max_residual']:.2e} over {len(corpus)} matrices"
    )


def test_criterion_3_variance_and_beta_identities():
    rng = np.random.default_rng(3)
    worst_var = -1.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = ScoreMatrix(rng.standard_normal((n, n)) * float(rng.choice([0.1, 1.0, 10.0])))
        profile = GammaProfile(m)
        rel = abs(profile.sigma2 - profile.sigma2_quad) / profile.sigma2
        worst_var = max(worst_var, rel)
        assert rel <= 1e-10, f"variance routes disagree: {rel}"
    corpus = []
    for _ in range(200):
        n = int(rng.integers(2, 9))
        corpus.append(ComplexScoreMatrix(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))))
    beta = holds(check_beta_routes(corpus, 1e-10))
    report(f"3: PASS - sigma2 routes rel<={worst_var:.2e}, beta routes rel<={beta['max_rel_residual']:.2e}")


def test_criterion_4_cf_bounds():
    corpus = t_grids([m for n in (3, 4, 5, 6, 7) for m in matrices(4000 + n, n, 50)], 10.0, 100)
    mod = holds(check_modulus_bound(corpus, 1e-12))
    diff = holds(check_cf_difference_bounds(corpus, 1e-12, quad_tol=1e-10))
    equality = t_grids([ScoreMatrix([[1.0, -1.0], [-1.0, 1.0]])], 10.0, 100)
    gap = holds(check_modulus_equality(equality, 1e-14))["max_gap"]
    report(
        f"4: PASS - cf bounds: modulus slack<={mod['max_violation']:.2e}, "
        f"integral slack<={diff['max_violation_integral']:.2e}, "
        f"closed slack<={diff['max_violation_closed']:.2e}, "
        f"simplified slack<={diff['max_violation_simplified']:.2e}, "
        f"integral-closed chain slack<={diff['max_violation_chain']:.2e}, equality gap<={gap:.2e}"
    )


def _domination_corpus():
    return [
        m
        for n in (3, 4, 5, 6, 7, 8)
        for count, scale in ((34, 0.1), (33, 1.0), (33, 10.0))
        for m in matrices(5000 + 100 * n + int(10 * scale), n, count, scale)
    ]


def test_criterion_5_main_theorem_domination():
    start = time.perf_counter()
    corpus = _domination_corpus()
    res = holds(check_theorem_domination(corpus, 1e-12))
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        f"5: PASS - {len(corpus)} matrices, theorem slack<={res['max_violation_bound']:.2e}, "
        f"Lyapunov slack<={res['max_violation_lyapunov']:.2e} in {elapsed:.1f}s"
    )


def test_criterion_6_sandwich_chains():
    worst = holds(check_sandwich(_domination_corpus(), 1e-12))["max_violation"]

    for t in (0.5, 1.0, 2.0):
        profile = GammaProfile(ScoreMatrix([[t, -t], [-t, t]]))
        for x in (-2.0, -0.04, 0.03, 1.0):
            assert profile.gamma(x) == pytest.approx(16 * t * t * min(1.0, abs(4 * x * t)), rel=1e-14)
            assert profile.gamma_tilde(x) == pytest.approx(4 * t * t * min(1.0, abs(x * t)), rel=1e-14)
    report(f"6: PASS - sandwich chains rel slack<={worst:.2e}; 2x2 closed forms exact")


def test_criterion_7_kernel_moment_integrals():
    worst = holds(check_kernel_moments((0.01, 0.1, 0.25, 0.4, 0.49), 1e-6))["max_residual"]
    report(f"7: PASS - kernel moment closed forms, max residual {worst:.2e}")


def test_criterion_8_smoothing_inequality():
    rng = np.random.default_rng(8)
    corpus = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        corpus.append(ScoreMatrix(rng.standard_normal((n, n))))
    worst = holds(check_smoothing(corpus, 0.0))["max_violation"]
    report(f"8: PASS - smoothing inequality on {2 * len(corpus)} (matrix, T) pairs, slack<={worst:.2e}")


def test_criterion_9_distribution_oracles():
    rng = np.random.default_rng(9)
    worst_mean = -1.0
    worst_var = -1.0
    for _ in range(30):
        n = int(rng.integers(2, 8))
        m = ScoreMatrix(rng.standard_normal((n, n)) * float(rng.choice([0.1, 1.0, 10.0])))
        dist = enumerate_distribution(m)
        p, v = dist.probs, dist.values
        mean = abs(float((p * v).sum()))
        var = abs(float((p * v * v).sum()) - 1.0)
        worst_mean = max(worst_mean, mean)
        worst_var = max(worst_var, var)
        assert mean <= 1e-10, f"standardized mean {mean} at n={n}"
        assert var <= 1e-10, f"standardized variance defect {var} at n={n}"

    m5 = ScoreMatrix(np.random.default_rng(95).standard_normal((5, 5)))
    trials = [(m5, 10**6, seed) for seed in range(10)]
    mc = holds(check_monte_carlo(trials, 3.0))
    report(
        f"9: PASS - moments (mean<={worst_mean:.2e}, var defect<={worst_var:.2e}); "
        f"{len(trials)} Monte Carlo trials gap<={mc['gap']:.2e} vs 3se={3 * mc['std_error']:.1e}"
    )


def test_criterion_10_restricted_sum_bound():
    ts = np.linspace(-8.0, 8.0, 50)
    corpus = list(restricted_instances(matrices(6010, 6, 20), np.random.default_rng(10), ts))
    worst = holds(check_restricted_sums(corpus, 1e-12))["max_violation"]
    report(f"10: PASS - restricted sums on {len(corpus) * ts.size} instances, slack<={worst:.2e}")
