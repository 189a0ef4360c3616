from __future__ import annotations

import cmath
import math
import sys
import tracemalloc
from concurrent.futures import Future

import mpmath
import numpy as np
import pytest

from cclt import (
    CapExceededError,
    CcltError,
    ConvergenceError,
    GammaProfile,
    InvalidMatrixError,
    ParameterError,
    ScoreMatrix,
    cf_diff_bound_closed,
    cf_diff_bound_integral,
    charfn,
    charfn_bound,
    enumerate_distribution,
    evaluate_cf,
    gauss_cf,
    h_ell,
    kappa,
    permanent,
    restricted_sum_check,
)
from cclt import permanents, quadrature
from cclt.permanents import (
    cf_diff_bound_closed_grid,
    cf_diff_bound_integral_grid,
    charfn_bound_grid,
    charfn_grid,
    evaluate_cf_grid,
    restricted_sum_grid,
)
from cclt.permtables import perm_blocks
from conftest import literal_tables, rand_complex_entries, rand_matrix, row_pair_corpus
from oracles import perm_batch_sequential, permanent_reference


def mp_permanent(entries) -> mpmath.mpc:
    """Ryser's formula in 50-digit arithmetic: an oracle independent of the kernel."""
    n = len(entries)
    total = mpmath.mpc(0)
    for mask in range(1, 1 << n):
        cols = [r for r in range(n) if mask >> r & 1]
        term = mpmath.mpc(1)
        for row in entries:
            term *= mpmath.fsum(row[r] for r in cols)
        total += -term if (n - len(cols)) % 2 else term
    return total


def derangements(n: int) -> int:
    d = [1, 0]
    for k in range(2, n + 1):
        d.append((k - 1) * (d[-1] + d[-2]))
    return d[n]


class TestPermanent:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_identity_matrix(self, n):
        assert permanent(np.eye(n)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_all_ones(self, n):
        assert permanent(np.ones((n, n))) == pytest.approx(math.factorial(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_naive_oracle(self, rng, n):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ryser = permanent(m)
        naive = permanent_reference(m)
        assert abs(ryser - naive) <= 1e-10 * max(1.0, abs(naive))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_mpmath_oracle(self, rng, n):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        with mpmath.workdps(50):
            exact = mp_permanent([[mpmath.mpc(z.real, z.imag) for z in row] for row in m])
            err = abs(mpmath.mpc(permanent(m)) - exact) / abs(exact)
        assert err <= 1e-12

    @pytest.mark.parametrize("n", range(1, 21))
    def test_integer_oracles(self, n):
        ones = np.ones((n, n))
        assert permanent(ones) == pytest.approx(math.factorial(n), rel=1e-12)
        assert permanent(ones - np.eye(n)) == pytest.approx(derangements(n), rel=1e-12)

    def test_real_matrix(self, rng):
        m = rng.standard_normal((5, 5))
        assert permanent(m) == pytest.approx(permanent_reference(m), rel=1e-10)

    def test_reference_oracle_past_one_block(self, rng):
        # n = 9 spans nine permutation blocks.
        m = rand_complex_entries(rng, 9)
        assert permanent_reference(m) == pytest.approx(permanent(m), rel=1e-10)

    def test_cap(self, rng, monkeypatch):
        # Each path refuses a 21 x 21 matrix before any Glynn batch.
        batches = []
        monkeypatch.setattr(permanents, "_perm_batch", lambda mats: batches.append(mats.shape))
        m = rand_matrix(rng, 21)
        with pytest.raises(CapExceededError, match=r"n = 21 exceeds the permanent cap 20$"):
            permanent(m.a)
        with pytest.raises(CapExceededError, match=r"n = 21 exceeds the permanent cap 20$"):
            charfn(m, 0.5)
        with pytest.raises(CapExceededError, match=r"n = 21 exceeds the permanent cap 20$"):
            evaluate_cf(m, 0.5)
        with pytest.raises(CapExceededError, match=r"21 x 21 permanent, above cap 20$"):
            restricted_sum_check(m, [], [], 0.5)
        assert batches == []

    def test_rejects_nonsquare(self):
        with pytest.raises(ParameterError):
            permanent(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)], ids=["nan", "inf", "-inf j"])
    def test_rejects_nonfinite_entries(self, monkeypatch, bad):
        batches = []
        monkeypatch.setattr(permanents, "_perm_batch", lambda mats: batches.append(mats.shape))
        with pytest.raises(InvalidMatrixError, match="^matrix entries must be finite$"):
            permanent(np.array([[bad, 1.0], [1.0, 1.0]]))
        assert batches == []

    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_independent_of_memory_layout(self, rng, n):
        x = np.exp(2j * math.pi * rng.uniform(size=(n, n)))
        assert permanent(np.asfortranarray(x)) == permanent(x)


class TestCharfn:
    def test_at_zero(self, rng):
        assert charfn(rand_matrix(rng, 4), 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("t", [0.0, 0.4, 1.3, -2.2])
    def test_two_by_two_cosine(self, two_by_two, t):
        assert charfn(two_by_two, t) == pytest.approx(math.cos(2 * t), abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_enumeration_oracle(self, rng, n):
        m = rand_matrix(rng, n)
        stats = GammaProfile(m)
        dist = enumerate_distribution(m)
        t = 0.7
        raw_values = stats.mu + math.sqrt(stats.sigma2) * dist.values
        oracle = complex((dist.probs * np.exp(1j * t * raw_values)).sum())
        assert abs(charfn(m, t) - oracle) <= 1e-10

    def test_matches_mpmath_oracle(self, rng):
        m = rand_matrix(rng, 8)
        for t in (0.0, 0.3, -1.1, 2.7):
            with mpmath.workdps(50):
                entries = [[mpmath.expj(t * mpmath.mpf(x)) for x in row] for row in m.a]
                exact = mp_permanent(entries) / math.factorial(8)
                err = abs(mpmath.mpc(charfn(m, t)) - exact)
            assert err <= 1e-12

    def test_at_zero_is_one_to_rounding_at_n18(self, rng):
        assert abs(charfn(rand_matrix(rng, 18), 0.0) - 1.0) <= 1e-12

    @pytest.mark.parametrize("size", [1, 3, 257])
    def test_grid_batches_match_scalar(self, rng, size):
        # The batch size sets how many sign bits the kernel tabulates.
        m = rand_matrix(rng, 14)
        ts = np.linspace(-2.0, 2.0, size)
        grid = charfn_grid(m, ts)
        for i, t in enumerate(ts):
            assert abs(grid[i] - charfn(m, float(t))) <= 1e-12

    def test_split_batch_matches_whole(self, rng, monkeypatch):
        m = rand_matrix(rng, 6)
        ts = np.linspace(-3.0, 3.0, 50)
        whole = charfn_grid(m, ts)
        monkeypatch.setattr(permanents, "_BLOCK_ELEMS", 64)
        assert np.abs(charfn_grid(m, ts) - whole).max() <= 1e-12

    def test_grid_matches_scalar(self, rng):
        m = rand_matrix(rng, 5)
        ts = np.linspace(-3.0, 3.0, 11)
        grid = charfn_grid(m, ts)
        for i, t in enumerate(ts):
            assert abs(grid[i] - charfn(m, float(t))) <= 1e-14

    def test_empty_grid(self, rng):
        m = rand_matrix(rng, 4)
        assert charfn_grid(m, []).shape == (0,)
        assert evaluate_cf_grid(m, []) == []

    def test_modulus_never_exceeds_one(self, rng):
        m = rand_matrix(rng, 5)
        ts = np.linspace(-20.0, 20.0, 41)
        assert float(np.abs(charfn_grid(m, ts)).max()) <= 1.0 + 1e-12


class TestModulusBound:
    def test_at_zero(self, rng):
        assert charfn_bound(rand_matrix(rng, 4), 0.0) == pytest.approx(1.0)

    def test_two_by_two_equality(self, two_by_two):
        for t in np.linspace(-5.0, 5.0, 41):
            lhs = abs(charfn(two_by_two, float(t)))
            rhs = charfn_bound(two_by_two, float(t))
            assert abs(lhs - rhs) <= 1e-14

    def test_dominates_modulus(self, rng):
        m = rand_matrix(rng, 5)
        ts = np.linspace(-10.0, 10.0, 81)
        slack = np.abs(charfn_grid(m, ts)) - charfn_bound_grid(m, ts)
        assert float(slack.max()) <= 1e-12

    def test_grid_matches_scalar(self, rng):
        m = rand_matrix(rng, 4)
        ts = np.linspace(-4.0, 4.0, 9)
        grid = charfn_bound_grid(m, ts)
        for i, t in enumerate(ts):
            assert grid[i] == pytest.approx(charfn_bound(m, float(t)), abs=1e-15)

    @pytest.mark.parametrize("n", range(2, 21))
    def test_matches_literal_mean(self, n):
        # The literal mean of cos^2(t b / 2) over every quadruple of the n^4
        # table: scales, lattices, a spike and entries near 1e6.
        for name, entries in row_pair_corpus(np.random.default_rng(n), n).items():
            profile = GammaProfile(entries)
            sigma = math.sqrt(profile.sigma2)
            ts = np.linspace(-10.0 / sigma, 10.0 / sigma, 41)
            _, b_abs = literal_tables(entries)
            mean = np.array([(np.cos(0.5 * t * b_abs) ** 2).sum() for t in ts.tolist()])
            literal = (mean / (n * n * (n - 1.0) * (n - 1.0))) ** ((n // 2) / 2.0)
            assert np.abs(charfn_bound_grid(profile, ts) - literal).max() <= 1e-14, name

    def test_no_quadruple_table_at_n60(self):
        # The literal n^4 tables at n = 60 take 2 x 12.5M float64 (over 300 MB
        # with their temporaries); the row-pair form holds O(n^2) plus a block.
        m = ScoreMatrix(np.random.default_rng(60).standard_normal((60, 60)))
        tracemalloc.start()
        try:
            bound = charfn_bound_grid(m, np.linspace(0.0, 1.5, 25))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"
        assert bound[0] == 1.0 and np.all(np.diff(bound[:5]) < 0.0)


class TestDampingBound:
    def test_indicator_for_small_n(self, two_by_two):
        assert h_ell(two_by_two, 1.0, 3) == 0.0

    def test_one_at_zero_frequency(self, two_by_two):
        assert h_ell(two_by_two, 0.0, 2) == 1.0

    def test_damping_exponent_nonnegative(self, rng):
        # sigma2 - gamma(2 kappa t)/4 >= 0 for every t
        kap, _ = kappa()
        for n in (2, 4, 6):
            profile = GammaProfile(rand_matrix(rng, n))
            for t in np.linspace(-30.0, 30.0, 31):
                assert profile.sigma2_quad - profile.gamma(2.0 * kap * float(t)) / 4.0 >= -1e-15

    def test_exponential_envelope(self, rng):
        kap, _ = kappa()
        for n in (3, 5):
            profile = GammaProfile(rand_matrix(rng, n))
            for ell in (2, 3, 4):
                for t in (0.3, 1.0, 4.0):
                    val = h_ell(profile, t, ell)
                    damp = profile.sigma2_quad - profile.gamma(2.0 * kap * t) / 4.0
                    envelope = math.exp(ell) * math.exp(
                        -(n - ell - 1.0) / (4.0 * (n - 1.0)) * t * t * damp
                    )
                    assert val <= min(1.0, envelope) + 1e-12
                    assert 0.0 <= val <= 1.0

    def test_rejects_negative_ell(self, two_by_two):
        with pytest.raises(ParameterError):
            h_ell(two_by_two, 1.0, -0.5)

    def test_rejects_nan_ell(self, two_by_two):
        with pytest.raises(ParameterError, match="ell must be nonnegative"):
            h_ell(two_by_two, 0.3, math.nan)


class TestRestrictedSums:
    def test_rejects_non_integer_indices(self, rng):
        m = rand_matrix(rng, 4)
        ts = np.linspace(-2.0, 2.0, 5)
        with pytest.raises(ParameterError, match="removed column must be an integer, got 1.5"):
            restricted_sum_grid(m, [1.5], [2.9], ts)
        with pytest.raises(ParameterError, match="removed row must be an integer, got 2.9"):
            restricted_sum_grid(m, [1], [2.9], ts)
        lhs, rhs = restricted_sum_grid(m, [np.int64(1)], [np.int64(2)], ts)
        expected = restricted_sum_grid(m, [1], [2], ts)
        assert lhs.tolist() == expected[0].tolist() and rhs.tolist() == expected[1].tolist()

    def test_full_and_almost_full_exclusion(self, rng):
        m = rand_matrix(rng, 5)
        lhs, rhs = restricted_sum_check(m, [1, 2, 3, 4, 5], [1, 2, 3, 4, 5], 1.3)
        assert lhs == 1.0 and rhs == 1.0
        lhs, rhs = restricted_sum_check(m, [1, 2, 3, 4], [2, 3, 4, 5], 1.3)
        assert lhs == pytest.approx(1.0) and rhs == 1.0

    def test_empty_exclusion_is_cf_modulus(self, rng):
        # The same permanents: |perm| / n! against |perm / n!|, two roundings apart.
        ts = np.linspace(-4.0, 4.0, 17)
        for n in (2, 5, 9):
            m = rand_matrix(rng, n)
            lhs, _ = restricted_sum_grid(m, [], [], ts)
            modulus = np.abs(charfn_grid(m, ts))
            assert np.all(np.abs(lhs - modulus) <= 2.0 * np.spacing(modulus)), n

    def test_bound_holds_on_random_sets(self, rng):
        m = rand_matrix(rng, 6)
        for ell in range(5):
            cols = rng.choice(np.arange(1, 7), size=ell, replace=False).tolist()
            rows = rng.choice(np.arange(1, 7), size=ell, replace=False).tolist()
            for t in np.linspace(-6.0, 6.0, 13):
                lhs, rhs = restricted_sum_check(m, cols, rows, float(t))
                assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("ell", [0, 1])
    def test_bound_holds_at_n10(self, rng, ell):
        m = rand_matrix(rng, 10)
        removed = list(range(1, ell + 1))
        for t in (0.4, 1.5):
            lhs, rhs = restricted_sum_check(m, removed, removed, t)
            assert lhs <= rhs

    def test_profile_matches_matrix(self, rng):
        m = rand_matrix(rng, 6)
        profile = GammaProfile(m)
        for ell, t in ((0, 0.7), (2, -2.5), (4, 6.0)):
            removed = list(range(1, ell + 1))
            assert restricted_sum_check(profile, removed, removed, t) == restricted_sum_check(m, removed, removed, t)

    @staticmethod
    def enumeration_oracle(a, cols, rows, t):
        """|sum over the bijections of the kept rows onto the kept columns| / k!, enumerated."""
        n = len(a)
        sub = a[np.ix_([r for r in range(n) if r + 1 not in rows], [c for c in range(n) if c + 1 not in cols])]
        k = len(sub)
        total = sum(np.exp(1j * t * sub[np.arange(k), block].sum(axis=1)).sum() for block in perm_blocks(k))
        return abs(total) / math.factorial(len(sub))

    @pytest.mark.parametrize("n", [2, 4, 6, 7])
    def test_grid_matches_enumeration(self, rng, n):
        m = rand_matrix(rng, n)
        profile = GammaProfile(m)
        ts = np.linspace(-6.0, 6.0, 13)
        kap, _ = kappa()
        for ell in range(n + 1):  # down to k = 1 and k = 0
            cols = rng.choice(np.arange(1, n + 1), size=ell, replace=False).tolist()
            rows = rng.choice(np.arange(1, n + 1), size=ell, replace=False).tolist()
            lhs, rhs = restricted_sum_grid(profile, cols, rows, ts)
            oracle = [self.enumeration_oracle(m.a, cols, rows, float(t)) for t in ts]
            assert lhs == pytest.approx(oracle, rel=0.0, abs=1e-14), (ell, cols, rows)
            assert np.all(lhs <= rhs + 1e-12)
            for i, t in enumerate(ts.tolist()):
                assert restricted_sum_check(profile, cols, rows, t) == (lhs[i], rhs[i])
                assert h_ell(profile, t, ell) == rhs[i]

    def test_no_fixed_rows_at_n12_is_the_cf_modulus(self, rng):
        m = rand_matrix(rng, 12)
        ts = np.array([0.0, 0.3, -1.1, 2.5])
        lhs, rhs = restricted_sum_grid(m, [], [], ts)
        assert lhs == pytest.approx(np.abs(charfn_grid(m, ts)), rel=0.0, abs=1e-15)
        assert lhs[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(lhs <= rhs)
        lhs, _ = restricted_sum_check(m, [], [], 0.3)
        assert lhs == pytest.approx(abs(charfn(m, 0.3)), rel=0.0, abs=1e-15)

    def test_cap_applies_to_the_submatrix(self, rng, monkeypatch):
        # A lowered cap keeps both sides cheap: 12 x 12 is refused, and the
        # 11 x 11 submatrix left by one fixed pair is taken at the cap.
        monkeypatch.setattr(permanents, "PERM_CAP", 11)
        m = rand_matrix(rng, 12)
        with pytest.raises(CapExceededError, match="12 x 12 permanent, above cap 11"):
            restricted_sum_check(m, [], [], 0.3)
        lhs, _ = restricted_sum_check(m, [3], [7], 0.3)
        assert 0.0 <= lhs <= 1.0

    def test_rejects_mismatched_sets(self, rng):
        m = rand_matrix(rng, 4)
        with pytest.raises(ParameterError):
            restricted_sum_check(m, [1, 2], [1], 0.5)
        with pytest.raises(ParameterError):
            restricted_sum_check(m, [1, 1], [1, 2], 0.5)
        with pytest.raises(IndexError):
            restricted_sum_check(m, [5], [1], 0.5)

    def test_out_of_range_is_a_cclt_error(self, rng):
        with pytest.raises(CcltError, match="index 5 out of range 1..4"):
            restricted_sum_check(rand_matrix(rng, 4), [5], [1], 0.5)


@pytest.mark.parametrize(
    "fn",
    [
        charfn_grid,
        charfn_bound_grid,
        cf_diff_bound_integral_grid,
        cf_diff_bound_closed_grid,
        evaluate_cf_grid,
        lambda m, ts: [h_ell(m, t, 2) for t in ts],
    ],
    ids=["charfn", "modulus", "integral", "closed", "evaluate", "h_ell"],
)
@pytest.mark.parametrize("ts", [[0.5, math.nan], [math.inf]], ids=["nan", "inf"])
def test_nonfinite_t_rejected(rng, fn, ts):
    with pytest.raises(ParameterError, match=str(ts[-1])):
        fn(rand_matrix(rng, 4), ts)


class TestCfDifferenceBounds:
    def test_integral_zero_at_origin(self, rng):
        assert cf_diff_bound_integral(rand_matrix(rng, 4), 0.0) == 0.0

    def test_closed_zero_at_origin(self, rng):
        closed = cf_diff_bound_closed(rand_matrix(rng, 4), 0.0)
        assert closed.general == 0.0

    def test_integral_dominates_difference(self, rng):
        m = rand_matrix(rng, 5)
        profile = GammaProfile(m)
        sigma = math.sqrt(profile.sigma2)
        for t in np.linspace(0.1, 8.0, 12):
            diff = abs(charfn(m, float(t)) - gauss_cf(profile, float(t)))
            bound = cf_diff_bound_integral(profile, float(t), tol=1e-10)
            assert diff <= bound + 1e-9

    def test_small_n_reduces_to_first_term(self, two_by_two):
        # h_3 and h_4 terms vanish for n = 2, so the bound equals the
        # first-term integral computed directly.
        profile = GammaProfile(two_by_two)
        kap, _ = kappa()
        t = 1.7
        sigma2 = profile.sigma2_quad

        def first_term(u):
            tu = t * u
            damp = sigma2 - profile.gamma(2.0 * kap * tu) / 4.0
            exponent = 2.0 - (2.0 - 2.0 - 1.0) / (4.0 * (2.0 - 1.0)) * tu * tu * damp
            h2 = 1.0 if exponent >= 0 else min(1.0, math.exp(exponent))
            return t * t * u * 0.5 * h2 * profile.gamma(tu / 4.0) * math.exp(
                -(1.0 - u * u) * sigma2 * t * t / 2.0
            )

        # Split at the kinks: the clips |x b| = 1 of both gamma arguments,
        # and the h_2 kink where damp reaches 0, i.e. where gamma(2 kappa t u)
        # reaches 4 sigma^2 at its last clip.
        _, b_abs = literal_tables(two_by_two.a)
        b = np.unique(b_abs[b_abs > 0])
        h2_kink = 1.0 / (2.0 * kap * t * b.max())
        kinks = np.concatenate((1.0 / (2.0 * kap * t * b), 4.0 / (t * b), [h2_kink]))
        points = [0.0, *sorted(set(kinks[(kinks > 0.0) & (kinks < 1.0)].tolist())), 1.0]
        expected = float(mpmath.quad(lambda u: first_term(float(u)), points))
        got = cf_diff_bound_integral(profile, t, tol=1e-12)
        assert got == pytest.approx(expected, abs=1e-10)

    def test_closed_dominates_difference_and_integral(self, rng):
        m = rand_matrix(rng, 7)
        profile = GammaProfile(m)
        ts = np.linspace(-6.0, 6.0, 13)
        phis = charfn_grid(m, ts)
        closed, simplified = cf_diff_bound_closed_grid(profile, ts)
        assert simplified is not None  # n >= 6
        for i, t in enumerate(ts):
            diff = abs(phis[i] - gauss_cf(profile, float(t)))
            assert diff <= closed[i] + 1e-12
            assert diff <= simplified[i] + 1e-12
            integral = cf_diff_bound_integral(profile, float(t), tol=1e-10)
            assert integral <= closed[i] + 1e-9

    def test_simplified_absent_below_six(self, rng):
        closed = cf_diff_bound_closed(rand_matrix(rng, 5), 1.0)
        assert closed.simplified is None

    def test_invalid_tolerance(self, rng):
        with pytest.raises(ParameterError):
            cf_diff_bound_integral(rand_matrix(rng, 4), 1.0, tol=0.0)

    def test_unconverged_quadrature_raises(self, rng, monkeypatch):
        profile = GammaProfile(rand_matrix(rng, 5))
        ts = [0.0, 1.0, 3.0]
        assert cf_diff_bound_integral_grid(profile, ts).min() == 0.0
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 10)
        with pytest.raises(ConvergenceError, match="more than 30 splits for 3 lane"):
            cf_diff_bound_integral_grid(profile, ts)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_nan_tolerance(self, rng, t):
        m = rand_matrix(rng, 4)
        with pytest.raises(ParameterError):
            cf_diff_bound_integral(m, t, tol=math.nan)
        with pytest.raises(ParameterError):
            cf_diff_bound_integral_grid(m, [t], tol=math.nan)


class TestCfEvaluation:
    def test_bundle_invariants(self, rng):
        m = rand_matrix(rng, 5)
        for t in (0.0, 0.8, -2.5):
            ev = evaluate_cf(m, t, tol=1e-10)
            assert abs(ev.phi) <= 1.0 + 1e-12
            assert abs(ev.phi) <= ev.modulus_bound + 1e-12
            assert abs(ev.phi - ev.gauss) <= ev.diff_bound_integral + 1e-9
            assert abs(ev.phi - ev.gauss) <= ev.diff_bound_closed + 1e-12

    def test_as_dict_round_trip(self, rng):
        ev = evaluate_cf(rand_matrix(rng, 4), 0.5)
        d = ev.as_dict()
        assert d["phi"]["re"] == ev.phi.real
        assert d["diff_bound_closed_simplified"] is None

    def test_independent_of_memory_layout(self, rng):
        ts = np.linspace(0.0, 3.0, 7)
        for _ in range(4):
            a = rng.standard_normal((8, 8))
            c_order = [ev.as_dict() for ev in evaluate_cf_grid(ScoreMatrix(a), ts)]
            assert [ev.as_dict() for ev in evaluate_cf_grid(ScoreMatrix(np.asfortranarray(a)), ts)] == c_order


def _cf_bits(evals) -> np.ndarray:
    """Every number of a list of ``CfEvaluation`` as int64 bits, an absent simplified bound as NaN."""
    rows = [
        (ev.t, ev.phi.real, ev.phi.imag, ev.gauss.real, ev.gauss.imag, ev.modulus_bound, ev.diff_bound_integral,
         ev.diff_bound_closed, math.nan if ev.diff_bound_closed_simplified is None else ev.diff_bound_closed_simplified)
        for ev in evals
    ]
    return np.array(rows, dtype=float).view(np.int64)


def _charfn_sequential(m: ScoreMatrix, ts: np.ndarray) -> np.ndarray:
    """``charfn_grid(m, ts)`` by the sequential reference loop, as int64 bits."""
    perms = perm_batch_sequential(np.exp(1j * ts[:, None, None] * m.a), permanents._BLOCK_ELEMS)
    return (perms / math.factorial(m.n)).view(np.int64)


def _inline_pool(sizes: list):
    """A ``ThreadPoolExecutor`` stand-in that appends each pool's ``max_workers``
    to ``sizes`` and runs each task when it is submitted, starting no thread."""

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    return InlinePool


def _copy_spy(monkeypatch) -> list:
    """Wrap ``np.copyto`` to list the size of each array it writes, from any thread."""
    copied = []
    copyto = np.copyto

    def spy(dst, src, *args, **kwargs):
        copied.append(dst.size)
        return copyto(dst, src, *args, **kwargs)

    monkeypatch.setattr(np, "copyto", spy)
    return copied


class TestThreadedWalk:
    """The Gray walk at every thread count gives the bits of one sequential loop
    (``oracles.perm_batch_sequential``), compared as int64 views."""

    # (12, 20): 8 Gray steps, so 3 parts start at steps 2 and 5, 4 parts at 2, 4 and 6;
    # (14, 1): 2 steps, fewer than 3 or 4 threads; (6, 11000): two blocks past
    # _BLOCK_ELEMS // 6, the first of 32 steps in two to four rounds, or in
    # rounds of one step at one thread (more than _SUMS_ELEMS // 2 rows); (2, 5): one step.
    @pytest.mark.parametrize("n, count", [(12, 20), (14, 1), (6, 11000), (2, 5)])
    @pytest.mark.parametrize("stack_elems", [1, 1 << 14, 1 << 15])
    def test_charfn_grid(self, rng, monkeypatch, n, count, stack_elems):
        monkeypatch.setattr(permanents, "_PART_ELEMS", 1)  # split every walk of two steps or more
        monkeypatch.setattr(permanents, "_STACK_ELEMS", stack_elems)
        m = rand_matrix(rng, n)
        ts = np.linspace(-2.5, 2.5, count)
        ref = _charfn_sequential(m, ts)
        for threads in (1, 2, 3, 4):
            assert np.array_equal(charfn_grid(m, ts, threads=threads).view(np.int64), ref), threads

    def test_wide_batch_at_the_default_constants(self, rng):
        # 5,461 t at n = 12: one block of 2,048 steps with k = 0, a step per
        # round at one thread and up to 4 parts of a round otherwise.
        m = rand_matrix(rng, 12)
        ts = np.linspace(-2.5, 2.5, 5461)
        ref = _charfn_sequential(m, ts)
        for threads in (1, 2, 3, 4):
            assert np.array_equal(charfn_grid(m, ts, threads=threads).view(np.int64), ref), threads

    def test_more_threads_than_cores_with_short_switches(self, rng, monkeypatch):
        monkeypatch.setattr(permanents, "_PART_ELEMS", 1)
        monkeypatch.setattr(permanents, "_STACK_ELEMS", 1)
        m = rand_matrix(rng, 13)
        ts = np.linspace(-2.0, 2.0, 40)  # 64 Gray steps
        ref = _charfn_sequential(m, ts)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (5, 8, 16):
                assert np.array_equal(charfn_grid(m, ts, threads=threads).view(np.int64), ref), threads
        finally:
            sys.setswitchinterval(interval)

    def test_evaluate_cf_grid(self, rng, monkeypatch):
        monkeypatch.setattr(permanents, "_PART_ELEMS", 1)
        m = rand_matrix(rng, 12)
        ts = np.linspace(0.0, 3.0, 20)
        one = _cf_bits(evaluate_cf_grid(m, ts))
        for threads in (2, 3, 4):
            assert np.array_equal(_cf_bits(evaluate_cf_grid(m, ts, threads=threads)), one), threads

    def test_n20_one_t(self, rng):
        # The default part size: one t at n = 20 splits into two parts.
        m = rand_matrix(rng, 20)
        ref = _charfn_sequential(m, np.array([0.7]))
        for threads in (1, 2, 3, 4):
            assert np.array_equal(charfn_grid(m, [0.7], threads=threads).view(np.int64), ref), threads

    @pytest.mark.parametrize("kind", ["gauss", "zero-one", "signed-zeros"])
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 14])
    def test_kernel_on_real_and_signed_zero_entries(self, rng, monkeypatch, kind, n):
        monkeypatch.setattr(permanents, "_PART_ELEMS", 1)
        shape = (3, n, n)
        if kind == "gauss":
            mats = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        elif kind == "zero-one":
            mats = rng.integers(0, 2, shape).astype(complex)
        else:
            mats = rng.integers(0, 2, shape) + rng.choice([-0.0, 0.0], shape) + 1j * rng.choice([-0.0, 0.0], shape)
        ref = perm_batch_sequential(mats, permanents._BLOCK_ELEMS).view(np.int64)
        for threads in (1, 2, 3, 4):
            assert np.array_equal(permanents._perm_batch(mats, threads).view(np.int64), ref), threads

    @pytest.mark.parametrize("bad", [0, -2, 1.5, "2", None])
    def test_rejects_bad_thread_counts(self, rng, bad):
        m = rand_matrix(rng, 4)
        for fn in (charfn_grid, evaluate_cf_grid):
            with pytest.raises(ParameterError, match="threads"):
                fn(m, [0.5], threads=bad)

    # n, t count, part size (None: the default), the pools' max_workers.  At
    # n = 16 one t has 8 Gray steps, at n = 20 256, and n = 14 x 25 t holds
    # too little work for two default parts.
    @pytest.mark.parametrize(
        "n, count, part_elems, pools",
        [(16, 1, 1, [7]), (20, 1, 1, [permanents._MAX_PARTS - 1]), (20, 1, None, [1]), (14, 25, None, [])],
    )
    def test_workers_bounded_by_steps_and_work(self, rng, monkeypatch, n, count, part_elems, pools):
        if part_elems is not None:
            monkeypatch.setattr(permanents, "_PART_ELEMS", part_elems)
        sizes = []
        monkeypatch.setattr(permanents, "ThreadPoolExecutor", _inline_pool(sizes))
        m = rand_matrix(rng, n)
        ts = np.linspace(0.2, 1.4, count)
        one = charfn_grid(m, ts).view(np.int64)
        assert sizes == []
        assert np.array_equal(charfn_grid(m, ts, threads=10**6).view(np.int64), one)
        assert sizes == pools

    # Stacks of n x n matrices and the part size of each walk (None: the default).
    # n = 18 x 1 t and n = 5 x 7,000 (k = 0, one code) keep numpy's broadcast
    # add; the others have 128-256 codes, so each factor is a copy and an add.
    FACTOR_WALKS = {
        "n18-one-t": (lambda rng: np.exp(0.3j * rand_matrix(rng, 18).a)[None], None),
        "k0-wide-batch": (lambda rng: np.exp(1j * np.linspace(-2.0, 2.0, 7000)[:, None, None] * rand_matrix(rng, 5).a), 1),
        "codes-one-part": (lambda rng: np.exp(1j * np.linspace(0.0, 1.5, 25)[:, None, None] * rand_matrix(rng, 14).a), None),
        "codes-stacked": (lambda rng: np.exp(1j * np.linspace(0.0, 1.5, 25)[:, None, None] * rand_matrix(rng, 14).a), 1),
        "signed-zeros": (
            lambda rng: rng.integers(0, 2, (20, 12, 12))
            + rng.choice([-0.0, 0.0], (20, 12, 12))
            + 1j * rng.choice([-0.0, 0.0], (20, 12, 12)),
            1,
        ),
        # Every other matrix has entries near 1e308, whose column sums overflow.
        "overflow": (
            lambda rng: np.where(np.arange(30)[:, None, None] % 2, 1e308, 1.0)
            * (rng.choice([-1.0, 1.0], (30, 10, 10)) + 1j * rng.uniform(-1.0, 1.0, (30, 10, 10))),
            1,
        ),
    }

    # copy_elems 1 copies wherever a step has two rows and two codes, 2^62 never.
    # numpy's error state is per thread, so the overflow walk's warnings are
    # filtered instead.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("copy_elems", [1, None, 1 << 62], ids=["copy", "default", "add"])
    @pytest.mark.parametrize("walk", sorted(FACTOR_WALKS))
    def test_factor_routes(self, rng, monkeypatch, walk, copy_elems):
        make, part_elems = self.FACTOR_WALKS[walk]
        if part_elems is not None:
            monkeypatch.setattr(permanents, "_PART_ELEMS", part_elems)
        if copy_elems is not None:
            monkeypatch.setattr(permanents, "_COPY_ELEMS", copy_elems)
        copied = _copy_spy(monkeypatch)
        mats = make(rng)
        size, n, _ = mats.shape
        ref = perm_batch_sequential(mats, permanents._BLOCK_ELEMS).view(np.int64)
        for threads in (1, 2, 3, 4):
            assert np.array_equal(permanents._perm_batch(mats, threads).view(np.int64), ref), threads
        assert np.isnan(ref.view(complex)).any() == (walk == "overflow")
        assert np.isfinite(ref.view(complex)).any()
        copies = copy_elems != 1 << 62 and walk not in ("n18-one-t", "k0-wide-batch")
        # Every factor of every step, or none: n factors of size x 2^(n-1) elements.
        assert sum(copied) == (4 * n * size << (n - 1) if copies else 0)

    @pytest.mark.parametrize("n", [16, 18])
    def test_benchmark_walks_copy_every_factor(self, rng, monkeypatch, n):
        # The charfn-grid jobs at n = 16 and 18: 25 t on two threads, 128 codes.
        copied = _copy_spy(monkeypatch)
        charfn_grid(rand_matrix(rng, n), np.linspace(0.0, 1.5, 25), threads=2)
        assert sum(copied) == n * 25 << (n - 1)


class TestScalarIsBatchOfOne:
    """Element i of each t-grid function equals its scalar call at ts[i], bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_modulus_closed_and_damping(self, rng, n):
        profile = GammaProfile(rand_matrix(rng, n))
        ts = np.concatenate((np.linspace(-6.0, 6.0, 17), [0.05, 11.0]))
        kap, _ = kappa()
        modulus = charfn_bound_grid(profile, ts)
        general, simplified = cf_diff_bound_closed_grid(profile, ts)
        g2k = profile.gamma_many(2.0 * kap * ts)
        damping = {ell: permanents._damping_many(profile, ts, ell, g2k) for ell in (2, 3, 4)}
        for i, t in enumerate(ts.tolist()):
            assert charfn_bound(profile, t) == modulus[i]
            closed = cf_diff_bound_closed(profile, t)
            assert closed.general == general[i]
            assert closed.simplified == (None if simplified is None else simplified[i])
            for ell, values in damping.items():
                assert h_ell(profile, t, ell) == values[i]

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 14])
    def test_integral_lanes_match_single_t(self, rng, n):
        profile = GammaProfile(rand_matrix(rng, n))
        ts = np.concatenate((np.linspace(-5.0, 5.0, 9), [0.3, -0.01, 9.0]))
        assert 0.0 in ts
        grid = cf_diff_bound_integral_grid(profile, ts, tol=1e-10)
        assert grid.tolist() == [cf_diff_bound_integral(profile, t, tol=1e-10) for t in ts.tolist()]

    def test_integral_grid_of_reversed_ts_is_the_reversed_grid(self, rng):
        # The quadrature steps then hold other sets of points, which the
        # integrand evaluates in another order.
        profile = GammaProfile(rand_matrix(rng, 14))
        ts = np.concatenate((np.linspace(-5.0, 5.0, 9), [0.3, -0.01, 9.0]))
        grid = cf_diff_bound_integral_grid(profile, ts)
        assert cf_diff_bound_integral_grid(profile, ts[::-1]).tobytes() == grid[::-1].tobytes()

    def test_zero_t_lane_never_calls_integrand(self, rng, monkeypatch):
        lanes_seen = []
        lanes_kernel = permanents.adaptive_simpson_lanes

        def spy(f, *args):
            def counted(points, lanes):
                lanes_seen.append(lanes.copy())
                return f(points, lanes)

            return lanes_kernel(counted, *args)

        monkeypatch.setattr(permanents, "adaptive_simpson_lanes", spy)
        m = rand_matrix(rng, 4)
        grid = cf_diff_bound_integral_grid(m, [0.7, 0.0, -1.2, -0.0])
        assert set(np.concatenate(lanes_seen).tolist()) == {0, 2}
        assert grid[1] == 0.0 and grid[3] == 0.0 and grid[0] > 0.0 and grid[2] > 0.0
        lanes_seen.clear()
        assert cf_diff_bound_integral(m, 0.0) == 0.0
        assert lanes_seen == []

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_gauss_cf_is_its_grid_and_the_scalar_formula(self, rng, n):
        profile = GammaProfile(rand_matrix(rng, n))
        mu, sigma2 = profile.mu, profile.sigma2
        ts = np.concatenate((np.linspace(-9.0, 9.0, 37), [0.0, -0.0, 1e-300, 40.0]))
        grid = permanents._gauss_cf_grid(profile, ts)
        for i, t in enumerate(ts.tolist()):
            assert gauss_cf(profile, t) == grid[i]
            assert gauss_cf(profile, t) == cmath.exp(1j * t * mu - sigma2 * t * t / 2.0)

    def test_evaluations_match_single_t(self, rng):
        m = rand_matrix(rng, 6)
        ts = np.linspace(-3.0, 3.0, 7)
        grid = evaluate_cf_grid(m, ts)
        assert [ev.as_dict() for ev in grid] == [evaluate_cf(m, t).as_dict() for t in ts.tolist()]
