from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from cclt import CcltError, ConvergenceError, ParameterError
from cclt import quadrature
from cclt.quadrature import adaptive_simpson_lanes, adaptive_simpson_vec, gauss_legendre


def test_cubic_is_exact():
    assert adaptive_simpson_vec(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)


def test_sine_integral():
    assert adaptive_simpson_vec(np.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(2.0, abs=1e-11)


def test_degenerate_and_reversed_bounds():
    assert adaptive_simpson_vec(np.exp, 1.0, 1.0) == 0.0
    forward = adaptive_simpson_vec(np.exp, 0.0, 2.0, tol=1e-12)
    assert adaptive_simpson_vec(np.exp, 2.0, 0.0, tol=1e-12) == pytest.approx(-forward, abs=1e-12)


def test_complex_integrand():
    got = gauss_legendre(lambda x: np.exp(1j * x), 0.0, 1.0, tol=1e-12)
    assert isinstance(got, complex)
    assert abs(got - (cmath.exp(1j) - 1.0) / 1j) < 1e-14


def test_sharp_peak_converges():
    # Narrow Gaussian bump; mass over [-1, 1] is erf(100)/ (well, ~sqrt(pi)/100).
    got = adaptive_simpson_vec(lambda x: np.exp(-((100.0 * x) ** 2)), -1.0, 1.0, tol=1e-12)
    assert got == pytest.approx(math.sqrt(math.pi) / 100.0, rel=1e-9)


def test_invalid_tolerance():
    with pytest.raises(ParameterError):
        adaptive_simpson_vec(np.sin, 0.0, 1.0, tol=0.0)
    with pytest.raises(ParameterError):
        adaptive_simpson_vec(np.sin, 0.0, 1.0, tol=-1.0)
    with pytest.raises(ParameterError):
        gauss_legendre(np.sin, 0.0, 1.0, tol=0.0)


def test_gauss_legendre_rules_are_built_once(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda order: built.append(order) or leggauss(order))
    for _ in range(2):  # sqrt keeps the orders apart, so every order is tried
        with pytest.raises(ConvergenceError):
            gauss_legendre(np.sqrt, 0.0, 1.0, tol=1e-12)
    assert sorted(built) == sorted(set(built))
    nodes, weights = quadrature._gl_rule(quadrature._GL_ORDERS[-1])
    assert not nodes.flags.writeable and not weights.flags.writeable


def test_nan_tolerance_rejected_before_any_call():
    calls = []

    def f(x):
        calls.append(x)
        return x * x

    for rule in (adaptive_simpson_vec, gauss_legendre):
        with pytest.raises(ParameterError):
            rule(f, 0.0, 1.0, tol=math.nan)
    assert calls == []


def test_vectorised_matches_scalar():
    def f(x):
        return np.exp(-x) * np.sin(3.0 * x)

    got = adaptive_simpson_vec(f, 0.0, 4.0, tol=1e-12)
    want = (3.0 - math.exp(-4.0) * (math.sin(12.0) + 3.0 * math.cos(12.0))) / 10.0
    assert got == pytest.approx(want, abs=1e-11)


def test_vectorised_complex():
    got = adaptive_simpson_vec(lambda x: np.exp(1j * x), 0.0, 1.0, tol=1e-12)
    want = (cmath.exp(1j) - 1.0) / 1j
    assert abs(got - want) < 1e-11


@pytest.mark.parametrize("degree", [0, 1, 7, 15])
def test_gauss_legendre_exact_for_polynomials(degree):
    # Order 8 integrates degree 15 exactly, so orders 8 and 16 agree at once.
    coef = np.random.default_rng(degree).standard_normal(degree + 1)
    poly = np.polynomial.Polynomial(coef)
    calls = []

    def f(x):
        calls.append(x.size)
        return poly(x)

    got = gauss_legendre(f, -0.25, 1.0, tol=1e-12)
    antiderivative = poly.integ()
    want = antiderivative(1.0) - antiderivative(-0.25)
    assert isinstance(got, float)
    assert got == pytest.approx(want, rel=1e-14, abs=1e-14)
    assert calls == [8, 16]


def test_gauss_legendre_degenerate_and_reversed_bounds():
    assert gauss_legendre(np.exp, 1.0, 1.0) == 0.0
    forward = gauss_legendre(np.exp, 0.0, 2.0, tol=1e-13)
    assert forward == pytest.approx(math.exp(2.0) - 1.0, rel=1e-15)
    assert gauss_legendre(np.exp, 2.0, 0.0, tol=1e-13) == -forward


def test_gauss_legendre_raises_when_orders_disagree():
    # sqrt has a branch point at 0: successive orders differ by 1.5e-4,
    # 2.0e-5 and 2.6e-6, never by 1e-12.
    with pytest.raises(ConvergenceError, match="differ by 2.62e-06") as info:
        gauss_legendre(np.sqrt, 0.0, 1.0, tol=1e-12)
    assert isinstance(info.value, CcltError) and isinstance(info.value, ValueError)
    # A loose tolerance accepts the same integrand at the first pair it meets.
    assert gauss_legendre(np.sqrt, 0.0, 1.0, tol=1e-3) == pytest.approx(2.0 / 3.0, abs=1e-4)


def test_simpson_raises_at_depth_cap():
    # sqrt has a branch point at 0: the leftmost interval fails its test at
    # every depth, so the rule raises rather than return an unconverged value.
    with pytest.raises(ConvergenceError, match="lane 0 fails at depth 60 near x = 0"):
        adaptive_simpson_vec(np.sqrt, 0.0, 1.0, tol=1e-12)
    # A loose tolerance converges on the same integrand.
    assert adaptive_simpson_vec(np.sqrt, 0.0, 1.0, tol=1e-6) == pytest.approx(2.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize("cap", [10, 100, 1000])
def test_split_budget_raises(monkeypatch, cap):
    points = [0]

    def f(x):
        points[0] += x.size
        return np.sin(200.0 * x)

    # The default budget is ample for sin(200x) at 1e-12.
    got = adaptive_simpson_vec(f, 0.0, 1.0, tol=1e-12)
    assert got == pytest.approx((1.0 - math.cos(200.0)) / 200.0, abs=1e-11)
    # The first level evaluates 3 + 2 points and each split adds two intervals
    # of 2 new points each, so a call stopped by its budget sees at most
    # 5 + 4 * cap points before it raises; at least half of that, as the
    # splits per level double.
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", cap)
    points[0] = 0
    with pytest.raises(ConvergenceError, match=f"more than {cap} splits for 1 lane"):
        adaptive_simpson_vec(f, 0.0, 1.0, tol=1e-12)
    assert 5 + 4 * cap // 2 < points[0] <= 5 + 4 * cap


# Mixed lanes: a reversed one, tolerances from 1e-8 to 1e-13.
_W = np.array([1.0, 40.0, 3.0, 60.0, 0.5, 17.0, 9.0])
_A = np.array([0.0, -1.0, 2.0, 0.0, 5.0, 0.25, -3.0])
_B = np.array([4.0, 1.0, 2.5, 1.0, -1.0, 0.5, 3.0])
_TOL = np.array([1e-12, 1e-10, 1e-8, 1e-11, 1e-9, 1e-13, 1e-10])


def _lane_integrand(w, complex_valued):
    """Lane i integrates exp(i w_i x), or exp(-x) sin(w_i x) when real."""

    def f(x, lanes):
        if complex_valued:
            return np.exp(1j * w[lanes] * x)
        return np.exp(-x) * np.sin(w[lanes] * x)

    return f


@pytest.mark.parametrize("complex_valued", [False, True])
def test_lanes_match_each_lane_alone(complex_valued):
    f = _lane_integrand(_W, complex_valued)
    got = adaptive_simpson_lanes(f, _A, _B, _TOL)
    assert got.dtype == (complex if complex_valued else float)
    for i in range(_W.size):
        alone = adaptive_simpson_vec(lambda x: f(x, np.full(x.shape, i)), _A[i], _B[i], tol=_TOL[i])
        assert got[i] == alone


@pytest.mark.parametrize("complex_valued", [False, True])
def test_lanes_independent_of_queue_cap(monkeypatch, complex_valued):
    f = _lane_integrand(np.tile(_W, 8) * np.repeat(np.linspace(1.0, 2.0, 8), _W.size), complex_valued)
    a, b, tol = np.tile(_A, 8), np.tile(_B, 8), np.tile(_TOL, 8)
    full = adaptive_simpson_lanes(f, a, b, tol)
    for cap in (64, 1):
        monkeypatch.setattr(quadrature, "_QUEUE_INTERVALS", cap)
        np.testing.assert_array_equal(adaptive_simpson_lanes(f, a, b, tol), full)


def test_lanes_call_with_one_unconverged_lane_raises(monkeypatch):
    # Lane 0 (sin(200x) at tol 1e-12) needs far more than 10 splits; the
    # other lanes converge within 10 each, alone or together.
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 10)
    w = np.array([200.0, 1.0, 2.0])
    tol = np.array([1e-12, 1e-6, 1e-6])

    def f(x, lanes):
        return np.sin(w[lanes] * x)

    with pytest.raises(ConvergenceError, match="more than 30 splits for 3 lane"):
        adaptive_simpson_lanes(f, 0.0, 1.0, tol)
    rest = adaptive_simpson_lanes(lambda x, lanes: f(x, lanes + 1), 0.0, 1.0, tol[1:])
    assert rest == pytest.approx([1.0 - math.cos(1.0), (1.0 - math.cos(2.0)) / 2.0], abs=1e-6)


def test_lanes_degenerate_and_reversed():
    seen = []

    def f(x, lanes):
        seen.append(lanes)
        return np.exp(x)

    got = adaptive_simpson_lanes(f, [0.0, 1.0, 2.0], [2.0, 1.0, 0.0], 1e-12)
    assert got[1] == 0.0
    assert got[2] == -got[0]
    assert got[0] == pytest.approx(math.exp(2.0) - 1.0, abs=1e-11)
    assert 1 not in np.concatenate(seen)
    assert np.array_equal(adaptive_simpson_lanes(f, 3.0, 3.0, 1e-12), [0.0])


def test_lanes_reject_nonpositive_tolerance():
    with pytest.raises(ParameterError):
        adaptive_simpson_lanes(_lane_integrand(_W, False), _A, _B, np.array([1e-10] * 6 + [0.0]))
    with pytest.raises(ParameterError):
        adaptive_simpson_lanes(_lane_integrand(_W, False), 0.0, 1.0, -1e-10)
