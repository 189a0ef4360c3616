from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclt import (
    GammaProfile,
    InvalidMatrixError,
    ParameterError,
    ScoreMatrix,
    from_sampling,
)
from cclt.scores import _second_differences
from conftest import literal_tables, rand_matrix, row_pair_corpus, second_difference_tensor
from oracles import g_clip, quad_diff

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
        stats = GammaProfile(two_by_two)
        assert np.array_equal(stats.a_tilde, two_by_two.a)
        assert stats.mu == 0.0
        assert stats.sigma2 == pytest.approx(4.0, abs=1e-15)
        assert stats.delta == pytest.approx(64.0, rel=1e-13)

    def test_constant_matrix(self):
        stats = GammaProfile(ScoreMatrix(np.full((3, 3), 2.5)))
        assert np.all(stats.a_tilde == 0.0)
        assert stats.mu == pytest.approx(7.5)
        assert stats.sigma2 == 0.0

    def test_row_and_column_sums_vanish(self, rng):
        m = rand_matrix(rng, 4)
        stats = GammaProfile(m)
        assert not stats.a_tilde.flags.writeable
        scale = np.abs(m.a).max()
        assert np.abs(stats.a_tilde.sum(axis=0)).max() <= 1e-12 * scale * 4
        assert np.abs(stats.a_tilde.sum(axis=1)).max() <= 1e-12 * scale * 4

    def test_mu_is_n_times_grand_mean(self, rng):
        m = rand_matrix(rng, 5)
        stats = GammaProfile(m)
        assert stats.mu == pytest.approx(5 * m.a.mean(), rel=1e-12)


class TestVarianceRoutes:
    def test_two_by_two_value(self, two_by_two):
        assert GammaProfile(two_by_two).sigma2_quad == pytest.approx(4.0, abs=1e-14)

    def test_constant_matrix(self):
        assert GammaProfile(ScoreMatrix(np.ones((4, 4)))).sigma2_quad == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_routes_agree(self, rng, n):
        profile = GammaProfile(rand_matrix(rng, n))
        s1, s2 = profile.sigma2, profile.sigma2_quad
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
        stats = GammaProfile(m)
        mc = ScoreMatrix(stats.a_tilde)
        for _ in range(20):
            j, k, r, s = rng.integers(1, 5, size=4)
            assert quad_diff(m, j, k, r, s) == pytest.approx(
                quad_diff(mc, j, k, r, s), abs=1e-12
            )

    def test_centered_entry_is_average_of_diffs(self, rng):
        # at[j, r] = (1/n^2) sum over all (k, s) of b[j, k, r, s]
        m = rand_matrix(rng, 4)
        stats = GammaProfile(m)
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
        profile = GammaProfile(ScoreMatrix([[t, -t], [-t, t]]))
        assert profile.gamma(x) == pytest.approx(16 * t * t * min(1.0, abs(4 * x * t)), rel=1e-14)
        assert profile.gamma_tilde(x) == pytest.approx(4 * t * t * min(1.0, abs(x * t)), rel=1e-14)

    def test_zero_argument(self, rng):
        profile = GammaProfile(rand_matrix(rng, 4))
        assert profile.gamma(0.0) == 0.0
        assert profile.gamma_tilde(0.0) == 0.0

    def test_large_argument_limit(self, rng):
        profile = GammaProfile(rand_matrix(rng, 5))
        assert profile.gamma(1e12) == pytest.approx(4.0 * profile.sigma2_quad, rel=1e-12)

    def test_nondecreasing_in_abs_x(self, rng):
        profile = GammaProfile(rand_matrix(rng, 4))
        values = profile.gamma_many(np.linspace(0.0, 10.0, 101))
        assert np.all(np.diff(values) >= 0.0)

    def test_upper_bounds(self, rng):
        stats = GammaProfile(rand_matrix(rng, 6))
        for x in (0.03, 0.7, 5.0):
            g = stats.gamma(x)
            assert g <= 4.0 * stats.sigma2 * (1 + 1e-12)
            assert g <= abs(x) * stats.delta * (1 + 1e-12)

    def test_scaled_argument_lower_bound_for_pair_form(self, rng):
        # y * gamma_tilde(x) <= gamma_tilde(x y) for y in (0, 1)
        profile = GammaProfile(rand_matrix(rng, 5))
        for x in (0.1, 1.0, 4.0):
            for y in (0.2, 0.5, 0.9):
                assert y * profile.gamma_tilde(x) <= profile.gamma_tilde(x * y) * (1 + 1e-12)

    def test_split_evaluation_matches_direct(self, rng):
        profile = GammaProfile(rand_matrix(rng, 6))
        xs = np.concatenate((np.linspace(-30.0, 30.0, 301), [0.0, 1e-15, 1e15]))
        direct = profile.gamma_many(xs)
        split = profile.gamma_split_many(xs)
        assert np.max(np.abs(direct - split)) <= 1e-11 * max(1.0, float(np.max(direct)))

    @pytest.mark.parametrize("n", [14, 22], ids=["literal table", "split tables on demand"])
    def test_split_evaluation_is_independent_of_order(self, rng, n):
        profile = GammaProfile(rand_matrix(rng, n))
        xs = np.concatenate((rng.standard_normal(300) * 4.0 / math.sqrt(profile.sigma2), [0.0, -0.0, 0.0, 1e-300]))
        xs = np.concatenate((xs, -xs[:50]))
        values = profile.gamma_split_many(xs)
        ax = np.abs(xs)
        for perm in (rng.permutation(xs.size), np.argsort(ax), np.argsort(ax)[::-1]):
            assert profile.gamma_split_many(xs[perm]).tobytes() == values[perm].tobytes()

    def test_rejects_nonfinite_argument(self, two_by_two):
        with pytest.raises(ParameterError):
            GammaProfile(two_by_two).gamma(math.inf)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_gamma_tilde_rejects_nonfinite_argument(self, two_by_two, x):
        with pytest.raises(ParameterError, match="x must be finite"):
            GammaProfile(two_by_two).gamma_tilde(x)

    @pytest.mark.parametrize("n", [2, 9, 20])
    def test_reduction_order_is_the_pairwise_row_sum(self, rng, n):
        # 4 times the literal quarter sum (j < k, s < r, taken from the full
        # tensor), reduced by numpy's pairwise sum: any batch (and the scalar
        # gamma, a batch of one) must give this value bit for bit.
        m = rand_matrix(rng, n)
        profile = GammaProfile(m)
        sigma = math.sqrt(profile.sigma2)
        xs = np.concatenate(([0.0, -0.0], np.linspace(-4.0, 4.0, 11) / sigma, [1e-9, 1e9]))
        lo, hi = np.triu_indices(n, 1)
        quarter = second_difference_tensor(m.a)[lo, hi][:, hi, lo].ravel()
        q_sq, q_abs = quarter * quarter, np.abs(quarter)
        norm = n * n * (n - 1)
        expected = [4.0 * float((q_sq * np.minimum(1.0, abs(x) * q_abs)).sum()) / norm for x in xs.tolist()]
        assert profile.gamma_many(xs).tolist() == expected
        assert [profile.gamma(x) for x in xs.tolist()] == expected


U = 2.0**-53
ROW_PAIR_XS = np.array([0.0, 1e-2, -1e-2, 1.0, 1e9])


def row_pair_allowance(a: np.ndarray, x: float) -> float:
    """The rounding allowance stated in the ``GammaProfile`` docstring.

    4 n^3 u sum_{j != k} M^2 (1 + 2 |x| M chi) / (n^2 (n-1)), with M the
    largest |e| of the row pair and chi = 1 when the pair has a second
    difference 0 < |b| <= 2/|x|.
    """
    n = a.shape[0]
    rows_j, rows_k = np.triu_indices(n, 1)
    d = np.sort(a[rows_j] - a[rows_k], axis=1)
    big = np.abs(d - d[:, n // 2 : n // 2 + 1]).max(axis=1)
    b = np.abs(d[:, :, None] - d[:, None, :])
    chi = np.any((b > 0.0) & (abs(x) * b <= 2.0), axis=(1, 2))
    # Each unordered row pair stands for the two ordered pairs j != k.
    total = 2.0 * float((big * big * (1.0 + 2.0 * abs(x) * big * chi)).sum())
    return 4.0 * n**3 * U * total / (n * n * (n - 1))


def mp_quadruple_sums(entries: np.ndarray, xs) -> tuple[float, float, list[float]]:
    """sigma2_quad, delta and gamma at each x from 50-digit sums.

    The sums run over the unordered pairs j < k, s < r, each counted four times.
    """
    n = entries.shape[0]
    with mpmath.workdps(50):
        a = [[mpmath.mpf(float(v)) for v in row] for row in entries]
        mp_xs = [abs(mpmath.mpf(x)) for x in xs]
        sq = mpmath.mpf(0)
        cube = mpmath.mpf(0)
        clipped = [mpmath.mpf(0) for _ in xs]
        for j in range(n):
            for k in range(j):
                d = [a[j][r] - a[k][r] for r in range(n)]
                for r in range(n):
                    for s in range(r):
                        b = abs(d[r] - d[s])
                        b2 = b * b
                        sq += b2
                        cube += b2 * b
                        for i, x in enumerate(mp_xs):
                            clipped[i] += b2 * min(mpmath.mpf(1), x * b)
        norm = n * n * (n - 1)
        return float(sq / norm), float(4 * cube / norm), [float(4 * c / norm) for c in clipped]


class TestRowPairRoute:
    """Above n = 20 gamma, sigma2_quad and delta come from row-pair windows."""

    @pytest.mark.parametrize("n", range(21, 31))
    def test_matches_literal_quadruple_sum(self, n):
        rng = np.random.default_rng(1000 + n)
        for name, entries in row_pair_corpus(rng, n).items():
            profile = GammaProfile(entries)
            # The full literal tables are the oracle.
            b_sq, b_abs = literal_tables(entries)
            norm = n * n * (n - 1)
            literal = np.array(
                [float((b_sq * np.minimum(1.0, abs(x) * b_abs)).sum()) / norm for x in ROW_PAIR_XS.tolist()]
            )
            rows = profile.gamma_many(ROW_PAIR_XS)
            error = np.abs(rows - literal)
            assert np.all(error <= 1e-12 * literal), (name, error / np.maximum(literal, 1e-300))
            # The stated allowance, plus the literal pairwise sum's own rounding.
            allowance = np.array([row_pair_allowance(entries, x) for x in ROW_PAIR_XS.tolist()])
            assert np.all(error <= allowance + (math.log2(b_sq.size) + 8) * U * literal), name
            sigma2 = float(b_sq.sum()) / (4.0 * norm)
            delta = float((b_sq * b_abs).sum()) / norm
            assert abs(profile.sigma2_quad - sigma2) <= 1e-12 * sigma2, name
            assert abs(profile.delta - delta) <= 1e-12 * delta, name

    def test_high_precision_oracle(self):
        # The hardest corpus entry: one 1e6 among 1e-3 noise.
        n = 21
        entries = row_pair_corpus(np.random.default_rng(7), n)["spike"]
        profile = GammaProfile(entries)
        xs = (1e-2, 1.0, 0.65 / math.sqrt(profile.sigma2))
        exact_sigma2, exact_delta, exact_gamma = mp_quadruple_sums(entries, xs)
        assert abs(profile.sigma2_quad - exact_sigma2) <= 1e-14 * exact_sigma2
        assert abs(profile.delta - exact_delta) <= 1e-14 * exact_delta
        for x, exact in zip(xs, exact_gamma):
            g = profile.gamma(x)
            # Never low beyond the stated allowance (it feeds an upper bound).
            assert g >= exact - row_pair_allowance(entries, x)
            assert abs(g - exact) <= 1e-14 * exact

    def test_scalar_is_a_batch_of_one(self, rng):
        profile = GammaProfile(rand_matrix(rng, 25))
        sigma = math.sqrt(profile.sigma2)
        xs = np.concatenate(([0.0, -0.0], np.linspace(-4.0, 4.0, 11) / sigma, [1e-9, 1e9]))
        batch = profile.gamma_many(xs).tolist()
        assert [profile.gamma(x) for x in xs.tolist()] == batch
        assert profile.gamma_many(xs[::-1]).tolist() == batch[::-1]
        assert profile.gamma_many(xs[3:6]).tolist() == batch[3:6]

    def test_variance_bound_holds_exactly_at_large_argument(self, rng):
        profile = GammaProfile(rand_matrix(rng, 24))
        for x in (1e3, 1e9, 1e200):
            assert 4.0 * profile.sigma2_quad - profile.gamma(x) >= 0.0

    def test_split_route_builds_the_literal_tables_on_demand(self, rng):
        profile = GammaProfile(rand_matrix(rng, 22))
        xs = np.linspace(-5.0, 5.0, 41)
        direct = profile.gamma_many(xs)
        split = profile.gamma_split_many(xs)
        assert np.max(np.abs(direct - split)) <= 1e-11 * float(np.max(direct))

    def test_profile_memory_is_quadratic(self):
        # The literal route held about 500 MB of n^4 tables at n = 60.
        entries = np.random.default_rng(0).standard_normal((60, 60))
        tracemalloc.start()
        try:
            profile = GammaProfile(entries)
            profile.gamma(0.65 / math.sqrt(profile.sigma2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestQuarterTable:
    """Up to n = 20 every quadruple sum runs over b with j < k, s < r, times 4."""

    @pytest.mark.parametrize("n", [2, 3, 7, 12])
    def test_entries_are_the_full_tensor_bit_for_bit(self, rng, n):
        lo, hi = np.triu_indices(n, 1)
        for y in (rng.standard_normal((n, n)), 1e6 + rng.uniform(-1e-3, 1e-3, (n, n)),
                  rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))):
            expected = second_difference_tensor(y)[lo, hi][:, hi, lo].ravel()
            got = _second_differences(y)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 9, 20, 22])
    def test_tables_hold_a_quarter_of_the_quadruples(self, rng, n):
        b_sq, b_abs = GammaProfile(rand_matrix(rng, n))._literal_tables()
        assert b_sq.size == b_abs.size == n * n * (n - 1) * (n - 1) // 4

    def test_split_tables_peak_memory(self):
        # The full n^4 tables peaked at 47 MB here; the quarter at about 17 MB.
        profile = GammaProfile(np.random.default_rng(30).standard_normal((30, 30)))
        xs = np.linspace(-5.0, 5.0, 41)
        tracemalloc.start()
        try:
            profile.gamma_split_many(xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 25e6

    def test_split_tables_alone_are_kept_above_n_20(self):
        # At n = 40 the split tables take 14.6 MB; the quarter tables they
        # are built from (9.7 MB more) are not read again and must be freed.
        tracemalloc.start()
        try:
            profile = GammaProfile(np.random.default_rng(40).standard_normal((40, 40)))
            profile.gamma_split_many(np.linspace(-5.0, 5.0, 41))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 16e6

    def test_high_precision_oracle(self):
        # Every corpus entry at n = 9 (the literal route) against 50-digit sums.
        n = 9
        for name, entries in row_pair_corpus(np.random.default_rng(9), n).items():
            profile = GammaProfile(entries)
            xs = (1e-2, 1.0, 0.65 / math.sqrt(profile.sigma2))
            exact_sigma2, exact_delta, exact_gamma = mp_quadruple_sums(entries, xs)
            assert abs(profile.sigma2_quad - exact_sigma2) <= 1e-15 * exact_sigma2, name
            assert abs(profile.delta - exact_delta) <= 1e-15 * exact_delta, name
            for x, exact in zip(xs, exact_gamma):
                assert abs(profile.gamma(x) - exact) <= 1e-15 * exact, (name, x)


class TestSandwichChains:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_both_chains(self, rng, n):
        m = rand_matrix(rng, n)
        profile = GammaProfile(m)
        sigma = math.sqrt(profile.sigma2)
        for x in (0.1 / sigma, 1.0 / sigma, 10.0 / sigma):
            g = profile.gamma(x)
            # pair-form sandwich
            assert g <= 16.0 * profile.gamma_tilde(x) * (1 + 1e-12)
            for y in (0.25, 0.5, 0.75):
                lower = (1.0 - y * y * ((n - 1) / n) ** 2) * profile.gamma_tilde(x * y)
                assert lower <= g * (1 + 1e-12)
            # variance sandwich
            assert 4.0 * (profile.sigma2 - (n - 1) / (27.0 * x * x)) <= g + 1e-12 * g
            assert g <= min(4.0 * profile.sigma2, abs(x) * profile.delta) * (1 + 1e-12)

    def test_pair_form_factor_is_tight(self):
        # ratio gamma/gamma_tilde reaches 16 for the antisymmetric 2x2 matrix
        profile = GammaProfile(ScoreMatrix([[1.0, -1.0], [-1.0, 1.0]]))
        for x in (1e-6, 1e-3, 0.2):
            assert profile.gamma(x) / profile.gamma_tilde(x) == pytest.approx(16.0, rel=1e-12)

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
        stats = GammaProfile(design.matrix)
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

    def test_m_draw_must_be_an_integer(self):
        for m_draw in (2.5, 2.0):
            with pytest.raises(ParameterError, match="m_draw must be an integer"):
                from_sampling([1.0, 2.0, 3.0, 4.0], m_draw)
        values = [1.0, 2.0, 3.0, 4.0]
        assert from_sampling(values, np.int64(2)).sigma2 == from_sampling(values, 2).sigma2

    def test_random_designs_match_direct_statistics(self, rng):
        for _ in range(10):
            n = int(rng.integers(3, 9))
            m_draw = int(rng.integers(1, n))
            values = rng.standard_normal(n)
            design = from_sampling(values, m_draw)
            stats = GammaProfile(design.matrix)
            assert stats.sigma2 == pytest.approx(design.sigma2, rel=1e-11, abs=1e-14)
            assert stats.mu == pytest.approx(design.mu, rel=1e-11, abs=1e-14)
