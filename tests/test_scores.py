from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclt import (
    GammaProfile,
    InvalidMatrixError,
    ParameterError,
    ScoreMatrix,
    center,
    from_sampling,
    g_clip,
    gamma,
    gamma_tilde,
    quad_diff,
    variance_quadruple,
)
from conftest import rand_matrix

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


class TestScoreMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrixError):
            ScoreMatrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_rejects_small(self):
        with pytest.raises(InvalidMatrixError):
            ScoreMatrix([[1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrixError):
            ScoreMatrix([[1.0, np.nan], [0.0, 1.0]])

    def test_rejects_overflowing_scale(self):
        # 4 * 1e200 overflows in its fourth power; this matrix used to fail
        # later with "atom values must be strictly increasing".
        with pytest.raises(InvalidMatrixError, match=r"scale 4\*max\|a\| = 4e\+200"):
            ScoreMatrix([[1e200, 0.0], [0.0, 1.0]])
        assert ScoreMatrix([[1e70, 0.0], [0.0, 1.0]]).n == 2

    def test_entries_read_only(self, two_by_two):
        with pytest.raises(ValueError):
            two_by_two.a[0, 0] = 7.0


class TestCenter:
    def test_already_centered_matrix(self, two_by_two):
        stats = center(two_by_two)
        assert np.array_equal(stats.a_tilde, two_by_two.a)
        assert stats.mu == 0.0
        assert stats.sigma2 == pytest.approx(4.0, abs=1e-15)
        assert stats.delta == pytest.approx(64.0, rel=1e-13)

    def test_constant_matrix(self):
        stats = center(ScoreMatrix(np.full((3, 3), 2.5)))
        assert np.all(stats.a_tilde == 0.0)
        assert stats.mu == pytest.approx(7.5)
        assert stats.sigma2 == 0.0

    def test_row_and_column_sums_vanish(self, rng):
        m = rand_matrix(rng, 4)
        stats = center(m)
        scale = np.abs(m.a).max()
        assert np.abs(stats.a_tilde.sum(axis=0)).max() <= 1e-12 * scale * 4
        assert np.abs(stats.a_tilde.sum(axis=1)).max() <= 1e-12 * scale * 4

    def test_mu_is_n_times_grand_mean(self, rng):
        m = rand_matrix(rng, 5)
        stats = center(m)
        assert stats.mu == pytest.approx(5 * m.a.mean(), rel=1e-12)


class TestVarianceRoutes:
    def test_two_by_two_value(self, two_by_two):
        assert variance_quadruple(two_by_two) == pytest.approx(4.0, abs=1e-14)

    def test_constant_matrix(self):
        assert variance_quadruple(ScoreMatrix(np.ones((4, 4)))) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_routes_agree(self, rng, n):
        m = rand_matrix(rng, n)
        s1 = center(m).sigma2
        s2 = variance_quadruple(m)
        assert abs(s1 - s2) <= 1e-12 * s1


class TestQuadDiff:
    def test_two_by_two(self, two_by_two):
        assert quad_diff(two_by_two, 1, 2, 1, 2) == 4.0

    def test_zero_when_rows_equal(self, rng):
        m = rand_matrix(rng, 4)
        assert quad_diff(m, 2, 2, 1, 3) == 0.0
        assert quad_diff(m, 1, 3, 2, 2) == 0.0

    def test_antisymmetry(self, rng):
        m = rand_matrix(rng, 5)
        for _ in range(20):
            j, k, r, s = rng.integers(1, 6, size=4)
            assert quad_diff(m, j, k, r, s) == -quad_diff(m, k, j, r, s)
            assert quad_diff(m, j, k, r, s) == -quad_diff(m, j, k, s, r)

    def test_centered_matrix_gives_same_value(self, rng):
        m = rand_matrix(rng, 4)
        stats = center(m)
        mc = ScoreMatrix(stats.a_tilde)
        for _ in range(20):
            j, k, r, s = rng.integers(1, 5, size=4)
            assert quad_diff(m, j, k, r, s) == pytest.approx(
                quad_diff(mc, j, k, r, s), abs=1e-12
            )

    def test_centered_entry_is_average_of_diffs(self, rng):
        # at[j, r] = (1/n^2) sum over all (k, s) of b[j, k, r, s]
        m = rand_matrix(rng, 4)
        stats = center(m)
        n = 4
        for j in range(1, n + 1):
            for r in range(1, n + 1):
                total = sum(
                    quad_diff(m, j, k, r, s) for k in range(1, n + 1) for s in range(1, n + 1)
                )
                assert total / n**2 == pytest.approx(stats.a_tilde[j - 1, r - 1], abs=1e-10)

    def test_index_out_of_range(self, two_by_two):
        with pytest.raises(IndexError):
            quad_diff(two_by_two, 0, 1, 1, 2)
        with pytest.raises(IndexError):
            quad_diff(two_by_two, 1, 2, 1, 3)


class TestGamma:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("x", [-3.0, -0.2, 0.05, 0.4, 7.0])
    def test_two_by_two_closed_form(self, t, x):
        m = ScoreMatrix([[t, -t], [-t, t]])
        assert gamma(m, x) == pytest.approx(16 * t * t * min(1.0, abs(4 * x * t)), rel=1e-14)
        assert gamma_tilde(m, x) == pytest.approx(4 * t * t * min(1.0, abs(x * t)), rel=1e-14)

    def test_zero_argument(self, rng):
        m = rand_matrix(rng, 4)
        assert gamma(m, 0.0) == 0.0
        assert gamma_tilde(m, 0.0) == 0.0

    def test_large_argument_limit(self, rng):
        m = rand_matrix(rng, 5)
        assert gamma(m, 1e12) == pytest.approx(4.0 * variance_quadruple(m), rel=1e-12)

    def test_nondecreasing_in_abs_x(self, rng):
        profile = GammaProfile(rand_matrix(rng, 4))
        values = profile.gamma_many(np.linspace(0.0, 10.0, 101))
        assert np.all(np.diff(values) >= 0.0)

    def test_upper_bounds(self, rng):
        m = rand_matrix(rng, 6)
        stats = center(m)
        for x in (0.03, 0.7, 5.0):
            g = gamma(m, x)
            assert g <= 4.0 * stats.sigma2 * (1 + 1e-12)
            assert g <= abs(x) * stats.delta * (1 + 1e-12)

    def test_scaled_argument_lower_bound_for_pair_form(self, rng):
        # y * gamma_tilde(x) <= gamma_tilde(x y) for y in (0, 1)
        m = rand_matrix(rng, 5)
        for x in (0.1, 1.0, 4.0):
            for y in (0.2, 0.5, 0.9):
                assert y * gamma_tilde(m, x) <= gamma_tilde(m, x * y) * (1 + 1e-12)

    def test_split_evaluation_matches_direct(self, rng):
        profile = GammaProfile(rand_matrix(rng, 6))
        xs = np.concatenate((np.linspace(-30.0, 30.0, 301), [0.0, 1e-15, 1e15]))
        direct = profile.gamma_many(xs)
        split = profile.gamma_split_many(xs)
        assert np.max(np.abs(direct - split)) <= 1e-11 * max(1.0, float(np.max(direct)))

    def test_rejects_nonfinite_argument(self, two_by_two):
        with pytest.raises(ParameterError):
            gamma(two_by_two, math.inf)

    @pytest.mark.parametrize("n", [2, 9, 30])
    def test_reduction_order_is_the_pairwise_row_sum(self, rng, n):
        # The literal sum, reduced by numpy's pairwise sum: any batch (and the
        # scalar gamma, a batch of one) must give this value bit for bit.
        profile = GammaProfile(rand_matrix(rng, n))
        sigma = math.sqrt(profile.stats.sigma2)
        xs = np.concatenate(([0.0, -0.0], np.linspace(-4.0, 4.0, 11) / sigma, [1e-9, 1e9]))
        norm = n * n * (n - 1)
        expected = [
            float((profile.b_sq * np.minimum(1.0, abs(x) * profile.b_abs)).sum()) / norm for x in xs.tolist()
        ]
        assert profile.gamma_many(xs).tolist() == expected
        assert [profile.gamma(x) for x in xs.tolist()] == expected


class TestSandwichChains:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_both_chains(self, rng, n):
        m = rand_matrix(rng, n)
        profile = GammaProfile(m)
        stats = profile.stats
        sigma = math.sqrt(stats.sigma2)
        for x in (0.1 / sigma, 1.0 / sigma, 10.0 / sigma):
            g = profile.gamma(x)
            # pair-form sandwich
            assert g <= 16.0 * profile.gamma_tilde(x) * (1 + 1e-12)
            for y in (0.25, 0.5, 0.75):
                lower = (1.0 - y * y * ((n - 1) / n) ** 2) * profile.gamma_tilde(x * y)
                assert lower <= g * (1 + 1e-12)
            # variance sandwich
            assert 4.0 * (stats.sigma2 - (n - 1) / (27.0 * x * x)) <= g + 1e-12 * g
            assert g <= min(4.0 * stats.sigma2, abs(x) * stats.delta) * (1 + 1e-12)

    def test_pair_form_factor_is_tight(self):
        # ratio gamma/gamma_tilde reaches 16 for the antisymmetric 2x2 matrix
        m = ScoreMatrix([[1.0, -1.0], [-1.0, 1.0]])
        for x in (1e-6, 1e-3, 0.2):
            assert gamma(m, x) / gamma_tilde(m, x) == pytest.approx(16.0, rel=1e-12)

    def test_mixing_inequality(self, rng):
        # x1 g(y1) + x2 g(y2) <= (x1 + x2) g((x1 y1 + x2 y2)/(x1 + x2))
        profile = GammaProfile(rand_matrix(rng, 5))
        for _ in range(50):
            x1, x2 = rng.uniform(0.0, 5.0, size=2)
            y1, y2 = rng.uniform(0.0, 3.0, size=2)
            if x1 + x2 == 0.0:
                continue
            lhs = x1 * profile.gamma(y1) + x2 * profile.gamma(y2)
            rhs = (x1 + x2) * profile.gamma((x1 * y1 + x2 * y2) / (x1 + x2))
            assert lhs <= rhs * (1 + 1e-12) + 1e-15


class TestGClip:
    def test_example(self):
        assert g_clip(2.0, 0.5) == pytest.approx(2.0)

    @given(x=finite_floats, y=finite_floats, z=finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_subadditive_in_second_argument(self, x, y, z):
        assert g_clip(x, y + z) <= g_clip(x, y) + g_clip(x, z) + 1e-12
        assert g_clip(x, y) + g_clip(x, z) <= 2.0 * g_clip(x, (abs(y) + abs(z)) / 2.0) + 1e-12

    @given(x=finite_floats, y=finite_floats, c=finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_exchange_inequality(self, x, y, c):
        lhs = g_clip(x, c * y) + g_clip(y, c * x)
        rhs = g_clip(x, c * x) + g_clip(y, c * y)
        assert lhs <= rhs + 1e-9 * max(1.0, abs(rhs))

    @given(x=finite_floats, c=finite_floats)
    @settings(max_examples=200, deadline=None)
    def test_quadratic_lower_bound(self, x, c):
        if c * c == 0.0:
            return
        assert x * x - 4.0 / (27.0 * c * c) <= g_clip(x, c * x) + 1e-9 * max(1.0, x * x)


class TestSampling:
    def test_closed_forms(self):
        design = from_sampling([1.0, 2.0, 3.0, 4.0], 2)
        assert design.sigma2 == pytest.approx(5.0 / 3.0, rel=1e-14)
        assert design.mu == pytest.approx(5.0)
        assert not design.degenerate
        stats = center(design.matrix)
        assert stats.sigma2 == pytest.approx(design.sigma2, rel=1e-12)
        assert stats.mu == pytest.approx(design.mu, rel=1e-12)

    def test_matrix_layout(self):
        design = from_sampling([5.0, 7.0, 9.0], 2)
        expected = np.array([[5.0, 7.0, 9.0], [5.0, 7.0, 9.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(design.matrix.a, expected)

    def test_constant_values_flagged(self):
        design = from_sampling([3.0, 3.0, 3.0], 2)
        assert design.degenerate
        assert design.sigma2 == 0.0

    def test_full_draw_flagged(self):
        design = from_sampling([1.0, 2.0, 3.0], 3)
        assert design.degenerate
        assert design.sigma2 == 0.0

    def test_m_draw_out_of_range(self):
        with pytest.raises(ParameterError):
            from_sampling([1.0, 2.0], 3)
        with pytest.raises(ParameterError):
            from_sampling([1.0, 2.0], 0)

    def test_random_designs_match_direct_statistics(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            m_draw = int(rng.integers(1, n))
            values = rng.standard_normal(n)
            design = from_sampling(values, m_draw)
            stats = center(design.matrix)
            assert stats.sigma2 == pytest.approx(design.sigma2, rel=1e-11, abs=1e-14)
            assert stats.mu == pytest.approx(design.mu, rel=1e-11, abs=1e-14)
