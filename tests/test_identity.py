from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cclt import (
    CapExceededError,
    CcltError,
    ComplexScoreMatrix,
    ConvergenceError,
    InvalidMatrixError,
    ParameterError,
    beta_quadruple,
    center,
    charfn,
    f_residual,
    f_terms,
    gauss_cf,
    identity_check,
    identity_terms,
    swap_identity_check,
)
from cclt import identity, permtables
from conftest import rand_complex_entries, rand_matrix
from oracles import f_terms_reference


def rand_complex(rng, n):
    return ComplexScoreMatrix(rand_complex_entries(rng, n))


@pytest.fixture
def walks(monkeypatch):
    """The n of every permutation walk the identity module starts."""
    seen = []
    monkeypatch.setattr(identity, "perm_blocks", lambda n: seen.append(n) or iter(()))
    return seen


def plain_f_parts(u, n, c, z1):
    """f1, f2, f3 of one chunk with a fresh array for every temporary."""
    weight = np.exp(u * c)
    expnz = np.exp(-u * z1)
    f1 = (np.multiply(z1, 1.0 - u * z1 - expnz).sum(axis=(1, 2)) * weight).sum()
    z1_sq = z1 * z1
    one_minus = 1.0 - expnz
    collide = (z1_sq * one_minus).sum(axis=2)
    f2 = u * (((z1_sq.sum(axis=2) * one_minus.sum(axis=2) - collide).sum(axis=1)) * weight).sum()
    f3 = 0.0 + 0.0j
    if n >= 4:
        row_q = expnz.sum(axis=2)
        qq = np.einsum("pjl,pkl->pjk", expnz, expnz)
        s_j = row_q[:, :, None] - 1.0 - expnz
        s_k = row_q[:, None, :] - 1.0 - np.swapaxes(expnz, 1, 2)
        t_jk = qq - np.swapaxes(expnz, 1, 2) - expnz
        pair_sum = s_j * s_k - t_jk
        f3 = u * ((np.multiply(z1_sq, (n - 2.0) * (n - 3.0) - pair_sum).sum(axis=(1, 2))) * weight).sum()
    return complex(f1), complex(f2), complex(f3)


class TestComplexScoreMatrix:
    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrixError):
            ComplexScoreMatrix(np.ones((2, 3), dtype=complex))

    def test_rejects_small(self):
        with pytest.raises(InvalidMatrixError):
            ComplexScoreMatrix(np.ones((1, 1), dtype=complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrixError):
            ComplexScoreMatrix(np.array([[1.0, np.inf], [0.0, 1.0]], dtype=complex))


class TestIdentityTerms:
    def test_zero_matrix(self):
        terms = identity_terms(ComplexScoreMatrix(np.zeros((3, 3), dtype=complex)))
        assert terms.alpha == 0.0
        assert terms.beta == 0.0

    def test_imaginary_scaling_of_real_matrix(self, rng):
        a = rand_matrix(rng, 5)
        stats = center(a)
        t = 0.8
        terms = identity_terms(ComplexScoreMatrix(1j * t * a.a))
        assert abs(terms.alpha - 1j * t * stats.mu) <= 1e-12
        assert abs(terms.beta + stats.sigma2 * t * t) <= 1e-12


class TestBetaRoutes:
    def test_centered_two_by_two(self):
        y = ComplexScoreMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]], dtype=complex))
        assert beta_quadruple(y) == pytest.approx(4.0)

    def test_zero_matrix(self):
        assert beta_quadruple(ComplexScoreMatrix(np.zeros((4, 4), dtype=complex))) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_pair_sum_equals_quadruple_sum(self, rng, n):
        y = rand_complex(rng, n)
        pair = identity_terms(y).beta
        quad = beta_quadruple(y)
        assert abs(pair - quad) <= 1e-10 * max(1.0, abs(pair))


class TestFTerms:
    def test_zero_matrix(self):
        ft = f_terms(ComplexScoreMatrix(np.zeros((3, 3), dtype=complex)), 0.5)
        assert ft.f == 0.0

    def test_low_order_terms_vanish(self, rng):
        ft2 = f_terms(rand_complex(rng, 2), 0.7)
        assert ft2.f2 == 0.0 and ft2.f3 == 0.0
        ft3 = f_terms(rand_complex(rng, 3), 0.7)
        assert ft3.f3 == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("u", [0.0, 0.3, 1.0])
    def test_vectorised_matches_literal_loops(self, rng, n, u):
        y = rand_complex(rng, n)
        fast = f_terms(y, u)
        slow = f_terms_reference(y, u)
        scale = max(1.0, abs(slow.f))
        assert abs(fast.f1 - slow.f1) <= 1e-10 * scale
        assert abs(fast.f2 - slow.f2) <= 1e-10 * scale
        assert abs(fast.f3 - slow.f3) <= 1e-10 * scale
        assert abs(fast.f - slow.f) <= 1e-10 * scale

    def test_weighted_sum_identity(self, rng):
        # f(u) = sum over permutations of (c_r - alpha - u beta) exp(u c_r)
        y = rand_complex(rng, 4)
        terms = identity_terms(y)
        u = 0.3
        c_values = [sum(y.y[j, r[j]] for j in range(4)) for r in itertools.permutations(range(4))]
        direct = sum((c - terms.alpha - u * terms.beta) * np.exp(u * c) for c in c_values)
        assert abs(f_terms(y, u).f - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_scaling_moves_between_argument_and_matrix(self, rng):
        # evaluating at u with Y equals evaluating at 1 with uY, up to one factor of u
        y = rand_complex(rng, 4)
        u = 0.37
        scaled = ComplexScoreMatrix(u * y.y)
        f_scaled = f_terms(scaled, 1.0).f
        f_orig = f_terms(y, u).f
        assert abs(f_scaled - u * f_orig) <= 1e-10 * max(1.0, abs(f_scaled))

    def test_cap(self, rng, walks):
        with pytest.raises(CapExceededError, match=r"f-terms need 11! permutation terms, above cap 10$"):
            f_terms(rand_complex(rng, 11), 0.5)
        assert walks == []

    def test_residual_cap(self, rng, walks):
        with pytest.raises(CapExceededError, match=r"residual needs 11! permutation terms, above cap 10$"):
            f_residual(rand_complex(rng, 11), 0.5)
        assert walks == []

    def test_batch_of_one_is_bit_identical(self, rng):
        # f_terms is _f_sums at one u; the batch walk adds each u's parts in
        # the same block order, so every node of an order matches exactly.
        y = rand_complex(rng, 6)
        nodes, _ = np.polynomial.legendre.leggauss(8)
        us = 0.5 * (nodes + 1.0)
        for u, (f1, f2, f3) in zip(us, identity._f_sums(y.y, us), strict=True):
            ft = f_terms(y, u)
            assert (ft.f1, ft.f2, ft.f3) == (f1, f2, f3)

    def test_chunked_blocks_agree(self, rng, monkeypatch):
        y = rand_complex(rng, 6)
        whole = f_terms(y, 0.6)
        monkeypatch.setattr(identity, "_CHUNK_ELEMS", 7 * 36)
        assert sum(1 for _ in identity._blocks(6)) == 103  # 720 rows, 7 per chunk
        chunked = f_terms(y, 0.6)
        for name in ("f1", "f2", "f3", "f"):
            ref = getattr(whole, name)
            assert abs(getattr(chunked, name) - ref) <= 1e-12 * abs(ref), name

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_work_arrays_match_plain_expressions(self, rng, n):
        # Fresh temporaries, bit for bit: n <= 5 chunks stay below the size
        # from which numpy may evaluate ``a * temporary`` in place as
        # ``temporary * a``, n = 6, 7 reach it; both sides write those
        # products as ``np.multiply(a, temporary)``.
        y = rand_complex(rng, n).y
        [(c, z1, work)] = identity._chunks(y)
        for u in (0.0, 0.3, 1.0):
            assert identity._f_parts(u, n, c, z1, work) == plain_f_parts(u, n, c, z1)

    def test_n8_peak_memory(self, rng):
        # One 8! block's pair differences are 41 MB of complex values; chunks
        # of the block bound them and the five work arrays of the f parts.
        y = rand_complex(rng, 8)
        tracemalloc.start()
        try:
            f_terms(y, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 100e6, peak


class TestPointwiseResidual:
    def test_zero_matrix(self):
        y = ComplexScoreMatrix(np.zeros((3, 3), dtype=complex))
        for u in (0.0, 0.5, 1.0):
            assert f_residual(y, u) == 0.0

    @pytest.mark.parametrize("u", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_random_matrix(self, rng, u):
        assert f_residual(rand_complex(rng, 4), u) <= 1e-9

    def test_oscillatory_case(self, rng):
        a = rand_matrix(rng, 4)
        assert f_residual(ComplexScoreMatrix(1j * a.a), 1.0) <= 1e-9


class TestIdentityCheck:
    def test_zero_matrix(self):
        chk = identity_check(ComplexScoreMatrix(np.zeros((3, 3), dtype=complex)), tol=1e-12)
        assert abs(chk.lhs) <= 1e-14
        assert chk.residual <= 1e-11

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_matrices(self, rng, n):
        chk = identity_check(rand_complex(rng, n), tol=1e-10)
        assert chk.residual <= 1e-9

    def test_reproduces_cf_difference(self, rng):
        a = rand_matrix(rng, 5)
        t = 0.8
        chk = identity_check(ComplexScoreMatrix(1j * t * a.a), tol=1e-10)
        expected = charfn(a, t) - gauss_cf(a, t)
        assert abs(chk.lhs - expected) <= 1e-10
        assert abs(chk.rhs - expected) <= 1e-8

    def test_invalid_tolerance(self, rng):
        with pytest.raises(ParameterError):
            identity_check(rand_complex(rng, 3), tol=-1e-9)

    def test_peak_memory_set_by_one_block(self, rng, monkeypatch):
        # With 5! rows per permutation block, n = 7 streams 42 blocks where
        # n = 6 streams 6, each about as large; holding all n! rows' pair
        # differences instead (7! * 49 complex values, 4 MB) would show here.
        monkeypatch.setattr(permtables, "_TABLE_N", 5)
        identity_check(rand_complex(rng, 5))  # warm the permutation table and numpy caches
        peaks = {}
        for n in (6, 7):
            y = rand_complex(rng, n)
            tracemalloc.start()
            try:
                chk = identity_check(y)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert chk.residual <= 1e-9
        assert peaks[7] <= 2.0 * peaks[6], peaks

    def test_one_block_walk_per_order(self, rng, monkeypatch):
        walks = []
        orders = []
        gauss_legendre = identity.gauss_legendre

        def counted_blocks(n):
            walks.append(n)
            return permtables.perm_blocks(n)

        def counted_gauss_legendre(f, a, b, tol):
            def integrand(us):
                orders.append(len(us))
                return f(us)

            return gauss_legendre(integrand, a, b, tol)

        monkeypatch.setattr(identity, "perm_blocks", counted_blocks)
        monkeypatch.setattr(identity, "gauss_legendre", counted_gauss_legendre)
        chk = identity_check(rand_complex(rng, 5))
        assert chk.residual <= 1e-9
        assert len(orders) >= 2 and walks == [5] * len(orders), (orders, walks)

    def test_unconverged_integral_raises(self, rng):
        # At 10x scale |lhs| is about 1e10; no Gauss-Legendre order resolves
        # the integral to tol there, so the check must raise, not return.
        y = ComplexScoreMatrix(10.0 * rand_complex_entries(rng, 3))
        with pytest.raises(ConvergenceError, match="Gauss-Legendre"):
            identity_check(y, tol=1e-10)

    def test_nan_tolerance(self, rng):
        with pytest.raises(ParameterError):
            identity_check(rand_complex(rng, 3), tol=math.nan)

    def test_cap(self, rng, walks):
        with pytest.raises(CapExceededError, match=r"identity check needs 11! permutation terms, above cap 10$"):
            identity_check(rand_complex(rng, 11))
        assert walks == []

    def test_swap_cap(self, rng, walks):
        with pytest.raises(CapExceededError, match=r"swap check needs 11! permutation terms, above cap 10$"):
            swap_identity_check(rand_complex(rng, 11), 1, 3)
        assert walks == []

    def test_independent_of_memory_layout(self, rng):
        y = rand_complex_entries(rng, 6)
        c_order = identity_check(ComplexScoreMatrix(y))
        assert identity_check(ComplexScoreMatrix(np.asfortranarray(y))) == c_order


class TestSwapIdentity:
    def test_zero_matrix(self):
        y = ComplexScoreMatrix(np.zeros((4, 4), dtype=complex))
        assert swap_identity_check(y, 1, 3) <= 1e-14

    def test_random_matrix(self, rng):
        assert swap_identity_check(rand_complex(rng, 4), 1, 3) <= 1e-10

    def test_symmetric_rows_give_zero(self, rng):
        y = rand_complex_entries(rng, 4)
        y[2, :] = y[0, :]  # rows 1 and 3 identical -> all swap differences vanish
        assert swap_identity_check(ComplexScoreMatrix(y), 1, 3) <= 1e-12

    def test_rejects_equal_indices(self, rng):
        with pytest.raises(ParameterError):
            swap_identity_check(rand_complex(rng, 3), 2, 2)

    def test_rejects_out_of_range(self, rng):
        with pytest.raises(IndexError):
            swap_identity_check(rand_complex(rng, 3), 1, 4)

    def test_out_of_range_is_a_cclt_error(self, rng):
        with pytest.raises(CcltError, match="index k=4 out of range 1..3"):
            swap_identity_check(rand_complex(rng, 3), 1, 4)

    def test_rejects_non_integer_indices(self, rng):
        y = rand_complex(rng, 3)
        with pytest.raises(ParameterError, match="j must be an integer, got 1.5"):
            swap_identity_check(y, 1.5, 2)
        with pytest.raises(ParameterError, match="k must be an integer, got '2'"):
            swap_identity_check(y, 1, "2")
        assert swap_identity_check(y, np.int64(1), np.int64(3)) == swap_identity_check(y, 1, 3)
