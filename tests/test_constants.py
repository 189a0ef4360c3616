from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import hypergeom

from cclt import analytic, permanents, quadrature
from cclt.constants import THEOREM_C1, THEOREM_C2
from cclt import (
    CapExceededError,
    ConvergenceError,
    DegenerateMatrixError,
    GammaProfile,
    InvalidMatrixError,
    ParameterError,
    ScoreMatrix,
    berry_esseen_bound,
    damped_moment_integrals,
    enumerate_distribution,
    from_sampling,
    kappa,
    kolmogorov_distance,
    sampling_bound_specialized,
    smoothing_bound,
    taylor_remainder_check,
    theorem_constants,
    v_of_w,
)
from conftest import rand_matrix


class TestKappa:
    def test_value_and_maximizer(self):
        kap, x0 = kappa()
        assert kap == pytest.approx(0.09916191, abs=1e-7)
        assert x0 == pytest.approx(3.99589, abs=1e-4)

    def test_inequality_on_dense_grid(self):
        kap, _ = kappa()
        xs = np.linspace(-50.0, 50.0, 20001)
        lhs = np.cos(xs) - 1.0 + xs * xs / 2.0
        assert float(np.max(lhs - kap * np.abs(xs) ** 3)) <= 1e-12

    def test_objective_vanishes_at_origin(self):
        from cclt.analytic import _kappa_objective

        assert _kappa_objective(0.0) == 0.0  # 0/0 convention
        kap, _ = kappa()
        # near 0 the ratio behaves like x/24, far below the maximum
        for x in (1e-3, 0.1, 0.5):
            assert _kappa_objective(x) < kap / 3.0


class TestTaylorRemainder:
    def test_zero_point(self):
        assert taylor_remainder_check(0.0, 3) == (0.0, 0.0)

    def test_pi_first_order(self):
        lhs, rhs = taylor_remainder_check(math.pi, 1)
        assert rhs == pytest.approx(2.0 * math.pi * min(1.0, math.pi / 4.0))
        assert lhs <= rhs

    @given(
        x=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        k=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_inequality(self, x, k):
        lhs, rhs = taylor_remainder_check(x, k)
        assert lhs <= rhs + 1e-12

    def test_rejects_negative_order(self):
        with pytest.raises(ParameterError):
            taylor_remainder_check(1.0, -1)


class TestSmoothingThreshold:
    def test_reference_value(self):
        assert v_of_w(0.89) == pytest.approx(5.329260, abs=1e-5)

    def test_solves_defining_equation(self):
        for w in (0.3, 0.89):
            v = v_of_w(w)
            with mpmath.workdps(30):
                integral = float(mpmath.quad(lambda x: (mpmath.sin(x) / x) ** 2, [0, v]))
            assert 2.0 / math.pi * integral == pytest.approx((1.0 + w) / 2.0, abs=1e-8)

    @pytest.mark.parametrize("v", [0.25, 3.0, 5.329260, 40.0])
    def test_closed_form_integral(self, v):
        # Si(2v) - sin^2(v)/v against a 30-digit quadrature of sin^2(x)/x^2.
        with mpmath.workdps(30):
            expected = mpmath.quad(lambda x: (mpmath.sin(x) / x) ** 2, mpmath.linspace(0, v, 41))
        assert analytic._sinc_sq_integral(v) == pytest.approx(float(expected), rel=1e-14)

    def test_sine_integral_against_mpmath(self):
        # Both sides of the series / continued-fraction switch at x = 2, the
        # argument 2 v(0.89) = 10.66, the bracket doublings 2 * 8 * 2^k of
        # ``v_of_w`` and grids over (0, 2e9], each against 50 digits.
        xs = [math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0), 2.0 * v_of_w(0.89)]
        xs += [16.0 * 2.0**k for k in range(27)]
        xs += np.geomspace(1e-12, 2e9, 2001).tolist() + np.linspace(1.0, 12.0, 1101).tolist()
        with mpmath.workdps(50):
            errors = [abs(analytic._si(x) - mpmath.si(x)) for x in xs]
        assert max(errors) <= 2e-15

    @pytest.mark.parametrize("w", [0.1, 0.3, 0.89, 0.999])
    def test_within_bisection_tolerance_of_the_root(self, w):
        v = v_of_w(w)
        with mpmath.workdps(50):
            target = (1 + mpmath.mpf(w)) * mpmath.pi / 4
            root = mpmath.findroot(lambda u: mpmath.si(2 * u) - mpmath.sin(u) ** 2 / u - target, v)
        assert abs(v - root) <= analytic._V_TOL

    def test_monotone_in_w(self):
        values = [v_of_w(w) for w in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("w", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, w):
        with pytest.raises(ParameterError):
            v_of_w(w)

    def test_threshold_beyond_bracket_names_w(self):
        # v(w) grows like 2 / (pi (1 - w)): about 6e10 here, past the 1e9 bracket.
        with pytest.raises(ParameterError, match="w = 0.99999999999"):
            v_of_w(0.99999999999)


class TestKernelMoments:
    def test_quarter_closed_form(self):
        mi = damped_moment_integrals(0.25)
        assert mi.i1 == pytest.approx(math.log(2.0), abs=1e-14)
        assert mi.i1_numeric_residual <= 1e-8
        assert mi.i2_numeric_residual <= 1e-8

    @pytest.mark.parametrize("c", [0.01, 0.1, 0.4, 0.49])
    def test_numeric_cross_check(self, c):
        mi = damped_moment_integrals(c)
        assert mi.i1_numeric_residual <= 1e-6
        assert mi.i2_numeric_residual <= 1e-6

    @pytest.mark.parametrize("c", [0.01, 0.25, 0.49])
    def test_high_precision_oracle(self, c):
        # Integrating t out exactly leaves the u-integral of
        # u^p Gamma((p+1)/2) / (2 rate(u)^((p+1)/2)), rate(u) = c u^2 + (1-u^2)/2,
        # which mpmath evaluates to 30 digits.
        from cclt.analytic import _kernel_moment

        mi = damped_moment_integrals(c)
        for power, closed in ((1, mi.i1), (2, mi.i2)):
            with mpmath.workdps(30):
                half = mpmath.mpf(power + 1) / 2
                scale = mpmath.gamma(half) / 2

                def integrand(u):
                    return u**power * scale / (c * u * u + (1 - u * u) / 2) ** half

                oracle = float(mpmath.quad(integrand, [0, 1]))
            assert closed == pytest.approx(oracle, rel=1e-13, abs=0.0)
            # The factored quadrature is good to rounding, far inside its tol 1e-8.
            assert abs(_kernel_moment(c, power, 1e-8) - oracle) <= 1e-12

    @pytest.mark.parametrize("c", [0.0, 0.5, -0.1, 0.9])
    def test_domain(self, c):
        with pytest.raises(ParameterError):
            damped_moment_integrals(c)


class TestConstantPipeline:
    def test_reference_inputs(self):
        rep = theorem_constants()
        assert rep.c3 == pytest.approx(1.2992, abs=1e-3)
        assert rep.c1 <= 15.84
        assert rep.c2 <= 0.65
        assert rep.c1 * rep.c2 <= 10.3
        assert rep.v_w == pytest.approx(5.329260, abs=1e-5)

    def test_theta_window(self):
        rep = theorem_constants()
        for entry in rep.thetas:
            assert 0.0 < entry.theta < 0.5
            assert 0.0 < entry.theta_tilde < 1.0
            assert entry.d_factor > 0.0

    def test_constants_are_maxima(self):
        rep = theorem_constants()
        assert rep.c1 == pytest.approx(max(rep.c3, rep.c5 * rep.c6, rep.c7))
        assert rep.c1 * rep.c2 == pytest.approx(
            max(rep.c3 * rep.c4, 2.0 * rep.kappa * rep.c5 * rep.c6**2, rep.c8)
        )

    def test_named_precondition_errors(self):
        with pytest.raises(ParameterError, match="w in"):
            theorem_constants(w=1.2)
        with pytest.raises(ParameterError, match="m integer"):
            theorem_constants(m=3)
        with pytest.raises(ParameterError, match="C4"):
            theorem_constants(m=1367, c4=5.0)
        with pytest.raises(ParameterError, match=r"C5\*C6"):
            theorem_constants(c5=0.001, c6=33.0)
        with pytest.raises(ParameterError, match="theta_4"):
            theorem_constants(m=4, c4=1.0)

    def test_integral_float_m_accepted(self):
        assert theorem_constants(m=1367.0) == theorem_constants(m=1367)
        with pytest.raises(ParameterError, match="m integer"):
            theorem_constants(m=1367.5)


class TestBerryEsseenBound:
    def test_two_by_two_values(self, two_by_two):
        rep = berry_esseen_bound(two_by_two)
        assert rep.sigma2 == pytest.approx(4.0)
        assert rep.gamma_at == pytest.approx(16.0)
        assert rep.bound == pytest.approx(63.36)
        assert rep.delta_report.delta == pytest.approx(0.3413447460685429, abs=1e-12)
        assert rep.slack > 0.0

    def test_dominates_exact_distance(self, rng):
        for n in (3, 5, 6):
            rep = berry_esseen_bound(rand_matrix(rng, n))
            assert rep.delta_report.delta <= rep.bound + 1e-12
            assert rep.delta_report.delta <= rep.lyapunov_bound + 1e-12

    def test_no_delta_above_cap(self, rng):
        rep = berry_esseen_bound(rand_matrix(rng, 5), enum_cap=4)
        assert rep.delta_report is None
        assert rep.slack is None

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            berry_esseen_bound(ScoreMatrix(np.ones((3, 3))))

    def test_scale_invariance(self, rng):
        m = rand_matrix(rng, 4)
        big = ScoreMatrix(10.0 * m.a)
        a = berry_esseen_bound(m, attach_delta=False)
        b = berry_esseen_bound(big, attach_delta=False)
        assert a.bound == pytest.approx(b.bound, rel=1e-10)
        assert a.lyapunov_bound == pytest.approx(b.lyapunov_bound, rel=1e-10)

    def test_independent_of_memory_layout(self, rng):
        for _ in range(4):
            a = rng.standard_normal((8, 8))
            c_order = berry_esseen_bound(ScoreMatrix(a)).as_dict()
            assert berry_esseen_bound(ScoreMatrix(np.asfortranarray(a))).as_dict() == c_order


class TestSamplingBound:
    def test_matches_generic_bound(self, rng):
        for n, m_draw in ((4, 2), (6, 3), (9, 4)):
            values = rng.standard_normal(n)
            design = from_sampling(values, m_draw)
            generic = berry_esseen_bound(design.matrix, attach_delta=False).bound
            special = sampling_bound_specialized(values, m_draw)
            assert special == pytest.approx(generic, rel=1e-11)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            sampling_bound_specialized([1.0, 1.0, 1.0], 2)
        with pytest.raises(DegenerateMatrixError):
            sampling_bound_specialized([1.0, 2.0, 3.0], 3)

    def test_equal_values_are_degenerate_though_the_sum_rounds_above_zero(self):
        values = [0.1, 0.1, 0.1]
        c = np.asarray(values)
        # The closed form m (n - m) / (n (n-1)) * sum((c - mean)^2) rounds to about 1.9e-34.
        assert 2 * (3 - 2) / (3 * 2) * float(((c - c.mean()) ** 2).sum()) > 0.0
        assert from_sampling(values, 2).degenerate
        with pytest.raises(DegenerateMatrixError):
            sampling_bound_specialized(values, 2)

    def test_m_draw_must_be_an_integer(self):
        with pytest.raises(ParameterError, match="m_draw must be an integer"):
            sampling_bound_specialized([1.0, 2.0, 3.0, 4.0], 2.5)
        values = [1.0, 2.0, 3.0, 4.0]
        assert sampling_bound_specialized(values, np.int64(2)) == sampling_bound_specialized(values, 2)

    @staticmethod
    def pair_matrix_oracle(values, m_draw, sigma2):
        """The specialised bound from the n x n matrix of value differences."""
        c = np.asarray(values, dtype=float)
        n = c.size
        sigma = math.sqrt(sigma2)
        diff = c[:, None] - c[None, :]
        total = float((diff**2 * np.minimum(1.0, THEOREM_C2 / sigma * np.abs(diff))).sum())
        return 2.0 * THEOREM_C1 * m_draw * (n - m_draw) / (n * n * (n - 1) * sigma2) * total

    @pytest.mark.parametrize("seed, kind", [(0, "gaussian"), (1, "zero-one"), (2, "integers")])
    def test_window_kernel_matches_pair_matrix(self, seed, kind):
        rng = np.random.default_rng(seed)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(4, 80))
            if kind == "gaussian":
                values = rng.standard_normal(n)
            elif kind == "zero-one":
                values = rng.integers(0, 2, n).astype(float)
            else:
                values = rng.integers(-3, 4, n).astype(float)
            m_draw = int(rng.integers(1, n))
            design = from_sampling(values, m_draw)
            if design.degenerate:
                continue
            expected = self.pair_matrix_oracle(values, m_draw, design.sigma2)
            got = sampling_bound_specialized(values, m_draw)
            # The same terms summed in another order: a few ulps apart.
            assert got == pytest.approx(expected, rel=2e-15, abs=0.0), (n, m_draw)
            checked += 1
        assert checked >= 50

    def test_holds_no_n_by_n_array(self):
        values = np.random.default_rng(4000).standard_normal(4000)
        tracemalloc.start()
        try:
            sampling_bound_specialized(values, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, f"peak {peak / 1e6:.1f} MB"  # one 4000 x 4000 float64 array is 128 MB

    @pytest.mark.parametrize(
        "values", [[[1.0, 2.0], [3.0, 4.0]], [1.0, math.nan, 2.0], [2.0]], ids=["matrix", "nan", "single"]
    )
    def test_rejects_what_from_sampling_rejects(self, values):
        with pytest.raises(InvalidMatrixError):
            from_sampling(values, 1)
        with pytest.raises(InvalidMatrixError):
            sampling_bound_specialized(values, 1)


def hypergeometric_pmf(n: int, ones: int, draws: int) -> tuple[int, np.ndarray]:
    """(k_min, pmf) of the ones among ``draws`` of n values drawn without replacement.

    The pmf over k_min..k_max comes from the ratio recursion
    p(k+1)/p(k) = (ones - k)(draws - k) / ((k + 1)(n - ones - draws + k + 1))
    in float64, run outward from the mode and normalised by its sum.
    """
    k_min, k_max = max(0, draws - (n - ones)), min(ones, draws)
    k = np.arange(k_min, k_max, dtype=float)
    ratio = (ones - k) * (draws - k) / ((k + 1.0) * (n - ones - draws + k + 1.0))
    mode = (draws + 1) * (ones + 1) // (n + 2) - k_min
    pmf = np.ones(k_max - k_min + 1)
    pmf[mode + 1 :] = np.cumprod(ratio[mode:])
    pmf[:mode] = np.cumprod(1.0 / ratio[:mode][::-1])[::-1]
    return k_min, pmf / pmf.sum()


def hypergeometric_delta(n: int, ones: int, draws: int, sigma2: float) -> float:
    """Kolmogorov distance of the standardised count from N(0, 1), over its atoms and their left limits."""
    k_min, pmf = hypergeometric_pmf(n, ones, draws)
    z = (np.arange(k_min, k_min + pmf.size) - draws * ones / n) / math.sqrt(sigma2)
    cdf = np.cumsum(pmf)
    left = np.concatenate(([0.0], cdf[:-1]))
    phi = ndtr(z)
    return float(max(np.abs(cdf - phi).max(), np.abs(left - phi).max()))


def balanced_design(n: int) -> tuple[np.ndarray, int, float]:
    """n/2 ones and n/2 zeros, n/2 draws, and sigma2 from the closed form (no n x n matrix)."""
    values = np.zeros(n)
    values[: n // 2] = 1.0
    draws = n // 2
    spread = float(((values - values.mean()) ** 2).sum())
    return values, draws, draws * (n - draws) / (n * (n - 1.0)) * spread


class TestTheoremBelowOne:
    """The theorem where it says something: balanced 0/1 designs, whose bound drops below 1."""

    def test_recursion_matches_scipy(self):
        n, ones, draws = 30_000, 15_000, 15_000
        k_min, pmf = hypergeometric_pmf(n, ones, draws)
        for k in (7_000, 7_400, 7_500, 7_560, 8_000):
            expected = hypergeom.pmf(k, n, ones, draws)
            assert pmf[k - k_min] == pytest.approx(expected, rel=1e-9, abs=1e-300), k

    def test_recursion_matches_exact_rationals(self):
        for n, ones, draws in ((200, 100, 100), (201, 60, 90)):
            k_min, pmf = hypergeometric_pmf(n, ones, draws)
            total = math.comb(n, draws)
            exact = [
                float(Fraction(math.comb(ones, k) * math.comb(n - ones, draws - k), total))
                for k in range(k_min, k_min + pmf.size)
            ]
            assert pmf == pytest.approx(exact, rel=1e-12, abs=1e-300)

    def test_delta_matches_enumeration(self):
        values, draws, sigma2 = balanced_design(8)
        design = from_sampling(values, draws)
        assert design.sigma2 == pytest.approx(sigma2, rel=1e-15)
        enumerated = kolmogorov_distance(enumerate_distribution(design.matrix)).delta
        assert hypergeometric_delta(8, 4, draws, sigma2) == pytest.approx(enumerated, rel=1e-12)

    @pytest.mark.parametrize(
        "n, bound_ref, delta_ref",
        [(30_000, 0.9511, 4.606e-3), (100_000, 0.5209, 2.523e-3), (1_000_000, 0.1647, 7.979e-4)],
    )
    def test_exact_delta_below_bound_below_one(self, n, bound_ref, delta_ref):
        values, draws, sigma2 = balanced_design(n)
        bound = sampling_bound_specialized(values, draws)
        delta = hypergeometric_delta(n, n // 2, draws, sigma2)
        assert delta <= bound < 1.0
        assert bound == pytest.approx(bound_ref, rel=1e-3)
        assert delta == pytest.approx(delta_ref, rel=1e-3)


class TestSmoothingBound:
    def test_dominates_exact_distance(self, rng):
        for n in (3, 4, 5):
            m = rand_matrix(rng, n)
            sigma = math.sqrt(GammaProfile(m).sigma2)
            delta = kolmogorov_distance(enumerate_distribution(m)).delta
            for cutoff in (2.0 / sigma, 10.0 / sigma):
                assert delta <= smoothing_bound(m, 0.89, cutoff, tol=1e-8) + 1e-8

    def test_two_by_two(self, two_by_two):
        delta = kolmogorov_distance(enumerate_distribution(two_by_two)).delta
        bound = smoothing_bound(two_by_two, 0.89, 5.0, tol=1e-8)
        assert delta <= bound

    def test_permanent_cap(self, rng, monkeypatch):
        batches = []
        monkeypatch.setattr(permanents, "_perm_batch", lambda mats: batches.append(mats.shape))
        with pytest.raises(CapExceededError, match="n = 21 exceeds the permanent cap 20$"):
            smoothing_bound(rand_matrix(rng, 21), 0.89, 1.0)
        assert batches == []

    def test_reassembles_from_parts(self, two_by_two):
        # integral of |cos(2t) - exp(-2 t^2)|/t over [0, T], assembled here
        # independently of the implementation's quadrature path.
        w, sigma, cutoff = 0.89, 2.0, 5.0

        # Split at the roots of cos 2t = exp(-2 t^2) in (0, 5], near 3 pi / 4
        # and 5 pi / 4, where the modulus has its kinks.
        def gap(t):
            return mpmath.cos(2 * t) - mpmath.exp(-2 * t * t)

        with mpmath.workdps(30):
            roots = [mpmath.findroot(gap, k * mpmath.pi / 4) for k in (3, 5)]
            integral = float(mpmath.quad(lambda t: abs(gap(t)) / t, [0, *roots, cutoff]))
        expected = integral / (math.pi * w) + (1.0 + w) * v_of_w(w) / (
            math.sqrt(2.0 * math.pi) * w * sigma * cutoff
        )
        got = smoothing_bound(two_by_two, w, cutoff, tol=1e-10)
        assert got == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(w=0.0),
            dict(w=1.0),
            dict(T=0.0),
            dict(tol=0.0),
            dict(tol=math.nan),
            dict(T=math.nan),
            dict(T=math.inf),
        ],
    )
    def test_parameter_domains(self, two_by_two, bad):
        kwargs = dict(w=0.89, T=3.0, tol=1e-8)
        kwargs.update(bad)
        with pytest.raises(ParameterError):
            smoothing_bound(two_by_two, kwargs["w"], kwargs["T"], tol=kwargs["tol"])

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            smoothing_bound(ScoreMatrix(np.zeros((3, 3))), 0.89, 2.0)

    def test_threshold_solved_once_per_w(self, two_by_two, monkeypatch):
        evaluated = []
        integral = analytic._sinc_sq_integral
        monkeypatch.setattr(analytic, "_sinc_sq_integral", lambda v: evaluated.append(v) or integral(v))
        v_of_w.cache_clear()
        first = smoothing_bound(two_by_two, 0.89, 5.0)
        assert evaluated
        evaluated.clear()
        assert smoothing_bound(two_by_two, 0.89, 5.0) == first
        assert evaluated == []

    def test_unconverged_quadrature_raises(self, rng, monkeypatch):
        m = rand_matrix(rng, 5)
        cutoff = 10.0 / math.sqrt(GammaProfile(m).sigma2)
        assert smoothing_bound(m, 0.89, cutoff) > 0.0
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 10)
        with pytest.raises(ConvergenceError, match="more than 10 splits"):
            smoothing_bound(m, 0.89, cutoff)
