"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line once its criterion holds (run with
``pytest -s`` to see the lines as they complete; any failure surfaces the
offending instance through the assertion message).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import conftest

import cclt
from cclt import (
    ComplexScoreMatrix,
    GammaProfile,
    ScoreMatrix,
    center,
    enumerate_distribution,
    f_residual,
    identity_check,
    identity_terms,
    beta_quadruple,
    berry_esseen_bound,
    damped_moment_integrals,
    kolmogorov_distance,
    monte_carlo_delta,
    restricted_sum_check,
    smoothing_bound,
    theorem_constants,
    v_of_w,
    variance_quadruple,
)
from cclt.analytic import kappa as kappa_cached
from cclt.permanents import (
    cf_diff_bound_closed_grid,
    cf_diff_bound_integral_grid,
    charfn_bound_grid,
    charfn_grid,
)


def report(line: str) -> None:
    # Collected by conftest's terminal-summary hook so that one line per
    # criterion shows up in every pytest run; also printed live for -s runs.
    conftest.acceptance_lines.append(f"ACCEPTANCE {line}")
    print(f"ACCEPTANCE {line}")


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
    kap, x0 = kappa_cached.__wrapped__()  # bypass the cache so the timing is honest
    v = v_of_w(0.89)
    rep = theorem_constants()
    elapsed = time.perf_counter() - start

    assert kap == pytest.approx(0.09916191, abs=1e-7)
    assert x0 == pytest.approx(3.99589, abs=1e-4)
    assert v == pytest.approx(5.329260, abs=1e-5)
    assert rep.c3 == pytest.approx(1.2992, abs=1e-3)
    assert rep.c1 <= 15.84
    assert rep.c2 <= 0.65
    assert rep.c1 * rep.c2 <= 10.3
    assert elapsed < 1.0, f"constants pipeline took {elapsed:.2f}s"
    report(
        f"1: PASS - constants kappa={kap:.8f} x0={x0:.5f} v(0.89)={v:.6f} "
        f"C1={rep.c1:.4f} C2={rep.c2:.4f} C1*C2={rep.c1 * rep.c2:.4f} in {elapsed:.2f}s"
    )


def test_criterion_2_permanent_identity():
    worst_identity = -1.0
    worst_pointwise = -1.0
    for n in (2, 3, 4, 5, 6):
        for i, y in enumerate(complex_matrices(1000 + n, n, 50)):
            chk = identity_check(y, tol=1e-10)
            worst_identity = max(worst_identity, chk.residual)
            assert chk.residual <= 1e-8, f"identity residual {chk.residual} at n={n} matrix {i}"
            for u in (0.0, 0.25, 0.5, 0.75, 1.0):
                res = f_residual(y, u)
                worst_pointwise = max(worst_pointwise, res)
                assert res <= 1e-9, f"pointwise residual {res} at n={n} matrix {i} u={u}"
    report(
        f"2: PASS - permanent identity residual<={worst_identity:.2e}, "
        f"pointwise residual<={worst_pointwise:.2e} over 250 matrices"
    )


def test_criterion_3_variance_and_beta_identities():
    rng = np.random.default_rng(3)
    worst_var = -1.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = ScoreMatrix(rng.standard_normal((n, n)) * float(rng.choice([0.1, 1.0, 10.0])))
        s1 = center(m).sigma2
        s2 = variance_quadruple(m)
        rel = abs(s1 - s2) / s1
        worst_var = max(worst_var, rel)
        assert rel <= 1e-10, f"variance routes disagree: {rel}"
    worst_beta = -1.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        y = ComplexScoreMatrix(rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
        pair = identity_terms(y).beta
        quad = beta_quadruple(y)
        rel = abs(pair - quad) / max(1e-30, abs(pair))
        worst_beta = max(worst_beta, rel)
        assert rel <= 1e-10, f"beta routes disagree: {rel}"
    report(f"3: PASS - sigma2 routes rel<={worst_var:.2e}, beta routes rel<={worst_beta:.2e}")


def test_criterion_4_cf_bounds():
    quad_tol = 1e-10
    worst_mod = -math.inf
    worst_int = -math.inf
    worst_closed = -math.inf
    worst_simple = -math.inf
    for n in (3, 4, 5, 6, 7):
        for m in matrices(4000 + n, n, 50):
            profile = GammaProfile(m)
            sigma = math.sqrt(profile.stats.sigma2)
            ts = np.linspace(-10.0 / sigma, 10.0 / sigma, 100)
            phis = charfn_grid(m, ts)
            mods = charfn_bound_grid(profile, ts)
            worst_mod = max(worst_mod, float(np.max(np.abs(phis) - mods)))
            gauss = np.exp(1j * ts * profile.stats.mu - profile.stats.sigma2 * ts * ts / 2.0)
            diffs = np.abs(phis - gauss)
            closed, simplified = cf_diff_bound_closed_grid(profile, ts)
            worst_closed = max(worst_closed, float(np.max(diffs - closed)))
            if simplified is not None:
                worst_simple = max(worst_simple, float(np.max(diffs - simplified)))
            bounds = cf_diff_bound_integral_grid(profile, ts, tol=quad_tol)
            worst_int = max(worst_int, float(np.max(diffs - bounds)))
    assert worst_mod <= 1e-12, f"modulus bound violated by {worst_mod}"
    assert worst_int <= quad_tol, f"integral bound violated by {worst_int}"
    assert worst_closed <= 1e-12, f"closed bound violated by {worst_closed}"
    assert worst_simple <= 1e-12, f"large-n closed bound violated by {worst_simple}"

    equality = ScoreMatrix([[1.0, -1.0], [-1.0, 1.0]])
    ts = np.linspace(-10.0 / 2.0, 10.0 / 2.0, 100)
    gap = float(np.max(np.abs(np.abs(charfn_grid(equality, ts)) - charfn_bound_grid(equality, ts))))
    assert gap <= 1e-14, f"2x2 equality case off by {gap}"
    report(
        f"4: PASS - cf bounds: modulus slack<={worst_mod:.2e}, integral slack<={worst_int:.2e}, "
        f"closed slack<={worst_closed:.2e}, simplified slack<={worst_simple:.2e}, equality gap<={gap:.2e}"
    )


def _domination_corpus():
    for n in (3, 4, 5, 6, 7, 8):
        for count, scale in ((34, 0.1), (33, 1.0), (33, 10.0)):
            seed = 5000 + 100 * n + int(10 * scale)
            yield from ((m, n) for m in matrices(seed, n, count, scale))


def test_criterion_5_main_theorem_domination():
    start = time.perf_counter()
    worst_bound = -math.inf
    worst_lyap = -math.inf
    total = 0
    for m, n in _domination_corpus():
        rep = berry_esseen_bound(m)
        delta = rep.delta_report.delta
        worst_bound = max(worst_bound, delta - rep.bound)
        worst_lyap = max(worst_lyap, delta - rep.lyapunov_bound)
        assert delta <= rep.bound + 1e-12, f"theorem bound violated at n={n}"
        assert delta <= rep.lyapunov_bound + 1e-12, f"Lyapunov bound violated at n={n}"
        total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        f"5: PASS - {total} matrices, theorem slack<={worst_bound:.2e}, "
        f"Lyapunov slack<={worst_lyap:.2e} in {elapsed:.1f}s"
    )


def test_criterion_6_sandwich_chains():
    worst = -math.inf
    for m, n in _domination_corpus():
        profile = GammaProfile(m)
        stats = profile.stats
        sigma = math.sqrt(stats.sigma2)
        for x in (0.1 / sigma, 1.0 / sigma, 10.0 / sigma):
            g = profile.gamma(x)
            scale = max(1.0, g)
            worst = max(worst, (g - 16.0 * profile.gamma_tilde(x)) / scale)
            for y in (0.25, 0.5, 0.75):
                lower = (1.0 - y * y * ((n - 1) / n) ** 2) * profile.gamma_tilde(x * y)
                worst = max(worst, (lower - g) / scale)
            worst = max(worst, (4.0 * (stats.sigma2 - (n - 1) / (27.0 * x * x)) - g) / scale)
            worst = max(worst, (g - min(4.0 * stats.sigma2, abs(x) * stats.delta)) / scale)
            assert worst <= 1e-12, f"sandwich chain violated at n={n}, x={x}"

    for t in (0.5, 1.0, 2.0):
        m = ScoreMatrix([[t, -t], [-t, t]])
        for x in (-2.0, -0.04, 0.03, 1.0):
            assert cclt.gamma(m, x) == pytest.approx(
                16 * t * t * min(1.0, abs(4 * x * t)), rel=1e-14
            )
            assert cclt.gamma_tilde(m, x) == pytest.approx(
                4 * t * t * min(1.0, abs(x * t)), rel=1e-14
            )
    report(f"6: PASS - sandwich chains rel slack<={worst:.2e}; 2x2 closed forms exact")


def test_criterion_7_kernel_moment_integrals():
    worst = -1.0
    for c in (0.01, 0.1, 0.25, 0.4, 0.49):
        mi = damped_moment_integrals(c)
        worst = max(worst, mi.i1_numeric_residual, mi.i2_numeric_residual)
        assert mi.i1_numeric_residual <= 1e-6, f"first moment residual at c={c}"
        assert mi.i2_numeric_residual <= 1e-6, f"second moment residual at c={c}"
    report(f"7: PASS - kernel moment closed forms, max residual {worst:.2e}")


def test_criterion_8_smoothing_inequality():
    rng = np.random.default_rng(8)
    worst = -math.inf
    checked = 0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = ScoreMatrix(rng.standard_normal((n, n)))
        sigma = math.sqrt(center(m).sigma2)
        delta = kolmogorov_distance(enumerate_distribution(m)).delta
        for cutoff in (2.0 / sigma, 10.0 / sigma):
            bound = smoothing_bound(m, 0.89, cutoff, tol=1e-8)
            worst = max(worst, delta - bound)
            assert delta <= bound, f"smoothing bound violated at n={n}, T={cutoff}"
            checked += 1
    report(f"8: PASS - smoothing inequality on {checked} (matrix, T) pairs, slack<={worst:.2e}")


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
    exact = kolmogorov_distance(enumerate_distribution(m5)).delta
    worst_gap = -1.0
    for seed in range(10):
        mc = monte_carlo_delta(m5, 10**6, seed=seed)
        gap = abs(mc.delta - exact)
        worst_gap = max(worst_gap, gap)
        assert gap <= 3.0 * mc.std_error, f"Monte Carlo gap {gap} at seed {seed}"
    report(
        f"9: PASS - moments (mean<={worst_mean:.2e}, var defect<={worst_var:.2e}); "
        f"10 Monte Carlo trials gap<={worst_gap:.2e} vs 3se={3 * 0.0005:.1e}"
    )


def test_criterion_10_restricted_sum_bound():
    rng = np.random.default_rng(10)
    worst = -math.inf
    checked = 0
    for m in matrices(6010, 6, 20):
        for ell in (0, 1, 2, 3, 4):
            cols = rng.choice(np.arange(1, 7), size=ell, replace=False).tolist()
            rows = rng.choice(np.arange(1, 7), size=ell, replace=False).tolist()
            for t in np.linspace(-8.0, 8.0, 50):
                lhs, rhs = restricted_sum_check(m, cols, rows, float(t))
                worst = max(worst, lhs - rhs)
                assert lhs <= rhs + 1e-12, f"restricted sum violated at ell={ell}, t={t}"
                checked += 1
    report(f"10: PASS - restricted sums on {checked} instances, slack<={worst:.2e}")
