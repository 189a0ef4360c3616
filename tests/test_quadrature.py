from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from cclt import ParameterError, adaptive_simpson
from cclt import quadrature
from cclt.quadrature import adaptive_simpson_lanes, adaptive_simpson_vec


def test_cubic_is_exact():
    assert adaptive_simpson(lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)


def test_sine_integral():
    assert adaptive_simpson(math.sin, 0.0, math.pi, tol=1e-12) == pytest.approx(2.0, abs=1e-11)


def test_degenerate_and_reversed_bounds():
    assert adaptive_simpson(math.exp, 1.0, 1.0) == 0.0
    forward = adaptive_simpson(math.exp, 0.0, 2.0, tol=1e-12)
    assert adaptive_simpson(math.exp, 2.0, 0.0, tol=1e-12) == pytest.approx(-forward, abs=1e-12)


def test_complex_integrand():
    got = adaptive_simpson(lambda x: cmath.exp(1j * x), 0.0, 1.0, tol=1e-12)
    want = (cmath.exp(1j) - 1.0) / 1j
    assert abs(got - want) < 1e-11


def test_sharp_peak_converges():
    # Narrow Gaussian bump; mass over [-1, 1] is erf(100)/ (well, ~sqrt(pi)/100).
    got = adaptive_simpson(lambda x: math.exp(-(100.0 * x) ** 2), -1.0, 1.0, tol=1e-12)
    assert got == pytest.approx(math.sqrt(math.pi) / 100.0, rel=1e-9)


def test_invalid_tolerance():
    with pytest.raises(ParameterError):
        adaptive_simpson(math.sin, 0.0, 1.0, tol=0.0)
    with pytest.raises(ParameterError):
        adaptive_simpson_vec(np.sin, 0.0, 1.0, tol=-1.0)


def test_vectorised_matches_scalar():
    def f(x):
        return np.exp(-x) * np.sin(3.0 * x)

    got = adaptive_simpson_vec(f, 0.0, 4.0, tol=1e-12)
    want = adaptive_simpson(lambda x: math.exp(-x) * math.sin(3.0 * x), 0.0, 4.0, tol=1e-12)
    assert got == pytest.approx(want, abs=1e-11)


def test_vectorised_complex():
    got = adaptive_simpson_vec(lambda x: np.exp(1j * x), 0.0, 1.0, tol=1e-12)
    want = (cmath.exp(1j) - 1.0) / 1j
    assert abs(got - want) < 1e-11


def _points_counted(f):
    """Wrap an array integrand so that ``calls[0]`` counts the points it saw."""
    calls = [0]

    def counted(x):
        calls[0] += x.size
        return f(x)

    return counted, calls


@pytest.mark.parametrize("cap", [10, 100, 1000])
def test_subdivision_budget_is_exact(cap):
    # The first level evaluates 3 + 2 points and each split adds two intervals
    # of 2 new points each, so a run that spends its whole budget sees
    # 5 + 4 * cap points.
    f, points = _points_counted(lambda x: np.sin(200.0 * x))
    adaptive_simpson_vec(f, 0.0, 1.0, tol=1e-12, max_subdivisions=cap)
    assert points[0] == 5 + 4 * cap


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


def test_exhausted_lane_leaves_others_unchanged():
    # Lane 0 (sin(200x) at tol 1e-12) needs far more than 10 splits; the
    # other lanes need fewer.
    w = np.array([200.0, 1.0, 2.0])
    tol = np.array([1e-12, 1e-6, 1e-6])

    def f(x, lanes):
        return np.sin(w[lanes] * x)

    got = adaptive_simpson_lanes(f, 0.0, 1.0, tol, max_subdivisions=10)
    for i in range(3):
        alone = adaptive_simpson_vec(lambda x: np.sin(w[i] * x), 0.0, 1.0, tol=tol[i], max_subdivisions=10)
        assert got[i] == alone
    assert got[1] == pytest.approx(1.0 - math.cos(1.0), abs=1e-6)
    assert got[2] == pytest.approx((1.0 - math.cos(2.0)) / 2.0, abs=1e-6)


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
