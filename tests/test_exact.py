from __future__ import annotations

import math
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from cclt import exact
from cclt import (
    AtomDistribution,
    CapExceededError,
    DegenerateMatrixError,
    GammaProfile,
    InvalidMatrixError,
    ParameterError,
    ScoreMatrix,
    enumerate_distribution,
    kolmogorov_distance,
    monte_carlo_delta,
    normal_cdf,
)
from cclt.permtables import perm_blocks
from conftest import child_env, itertools_perms, rand_matrix

# Phi(1) frozen from the power series of erf at 1/sqrt(2) (see oracle below).
PHI_AT_ONE = 0.8413447460685429
TWO_ATOM_DELTA = PHI_AT_ONE - 0.5


def erf_series(x: float) -> float:
    # erf(x) = 2/sqrt(pi) * sum_k (-1)^k x^(2k+1) / (k! (2k+1)); fast at |x| < 1.
    total = 0.0
    term = x
    k = 0
    while abs(term) / (2 * k + 1) > 1e-22:
        total += (-1) ** k * term / (2 * k + 1)
        k += 1
        term = term * x * x / k
    return 2.0 / math.sqrt(math.pi) * total


# Where a branch of Cephes' ndtr or erfc changes: z = |a|/sqrt(2) at
# sqrt(1/2), 1 and 8, and -z^2 = -MAXLOG.
PHI_EDGES = (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * 7.09782712893383996843e2))


def steps_around(edge: float, k: int = 8) -> np.ndarray:
    """edge and the k doubles on each side of it."""
    out = [edge]
    lo = hi = edge
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.array(out)


class TestNormalCdf:
    def test_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_value_at_one_against_series_oracle(self):
        oracle = 0.5 + 0.5 * erf_series(1.0 / math.sqrt(2.0))
        assert oracle == pytest.approx(PHI_AT_ONE, abs=1e-15)
        assert normal_cdf(1.0) == pytest.approx(oracle, abs=1e-14)

    @given(x=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_symmetry(self, x):
        assert abs(normal_cdf(-x) - (1.0 - normal_cdf(x))) <= 1e-15

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            normal_cdf(math.nan)

    def test_is_the_scan_phi(self):
        edges = np.concatenate([steps_around(e, 2) for e in PHI_EDGES])
        grid = np.concatenate((np.linspace(-40.0, 40.0, 801), [0.0, -0.0, 8.0, -8.0, 38.0, -38.0, 1e-300], edges, -edges))
        scan_phi = exact.ndtr(grid)
        assert [normal_cdf(x) for x in grid.tolist()] == scan_phi.tolist()


class TestPhiPort:
    """``exact.ndtr`` against scipy's compiled Cephes ``ndtr`` and against mpmath."""

    def test_bit_equal_to_scipy(self):
        rng = np.random.default_rng(29)
        edges = np.concatenate([steps_around(e) for e in PHI_EDGES])
        extremes = np.array([0.0, 5e-324, 1e-300, 1e308, np.finfo(float).max, 1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)])
        x = np.concatenate(
            (
                rng.uniform(-40.0, 40.0, 1_000_000),
                rng.normal(0.0, 3.0, 1_000_000),
                np.linspace(-40.0, 40.0, 1_000_000),
                edges, -edges, extremes, -extremes,
            )
        )
        ours, theirs = exact.ndtr(x), ndtr(x)
        # As integers, so signed zeros and every last bit count.
        mismatch = np.flatnonzero(ours.view(np.int64) != theirs.view(np.int64))
        assert mismatch.size == 0, x[mismatch[:5]]

    def test_infinities_and_nan(self):
        phi = exact.ndtr(np.array([-np.inf, np.inf, np.nan]))
        assert phi[:2].tolist() == [0.0, 1.0]
        assert np.isnan(phi[2])

    def test_no_warning_for_any_finite_input(self):
        magnitudes = np.logspace(-323.0, 308.0, 4001)
        x = np.concatenate((magnitudes, -magnitudes, [0.0, -0.0, np.finfo(float).max, -np.finfo(float).max]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi = exact.ndtr(x)
        assert np.isfinite(phi).all()

    def test_accuracy_against_mpmath(self):
        # Measured maxima: 1.07e-16 absolute, 2.32e-13 relative below -1 (the
        # rounding of z^2 inside exp(-z^2)) and 3.1e-16 relative above.
        x = np.concatenate((np.linspace(-37.5, 8.5, 921), np.random.default_rng(1).uniform(-37.5, 8.5, 500)))
        with mpmath.workdps(40):
            exact_phi = [mpmath.ncdf(mpmath.mpf(v)) for v in x.tolist()]
            err = np.array([float(abs(mpmath.mpf(p) - e)) for p, e in zip(exact.ndtr(x).tolist(), exact_phi)])
            rel = err / np.array([float(e) for e in exact_phi])
        assert err.max() <= 1.2e-16
        assert rel[x <= -1.0].max() <= 2.5e-13
        assert rel[x > -1.0].max() <= 5e-16


class TestEnumerate:
    def test_two_by_two_atoms(self, two_by_two):
        dist = enumerate_distribution(two_by_two)
        assert dist.atoms == [(-1.0, 0.5), (1.0, 0.5)]

    def test_probabilities_sum_to_one(self, rng):
        dist = enumerate_distribution(rand_matrix(rng, 6))
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert int(dist.counts.sum()) == math.factorial(6)

    def test_moments_match_centering(self, rng):
        dist = enumerate_distribution(rand_matrix(rng, 5))
        assert len(dist.atoms) <= 120
        p, v = dist.probs, dist.values
        assert float((p * v).sum()) == pytest.approx(0.0, abs=1e-10)
        assert float((p * v * v).sum()) == pytest.approx(1.0, rel=1e-10)

    def test_cap_error_mentions_monte_carlo(self, rng):
        with pytest.raises(CapExceededError, match="monte_carlo"):
            enumerate_distribution(rand_matrix(rng, 5), enum_cap=4)

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            enumerate_distribution(ScoreMatrix(np.ones((3, 3))))

    def test_equal_values_are_merged_exactly(self):
        # Permutation sum of a rank-one-ish integer matrix has many ties.
        m = ScoreMatrix([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 0.0]])
        dist = enumerate_distribution(m)
        assert len(dist.atoms) < 6
        assert int(dist.counts.sum()) == 6


def enumerate_oracle(m: ScoreMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Standardized atoms by a gather of all ``itertools`` permutations, a stable sort, the merge.

    The gather runs over blocks of 2^16 permutations, so n = 10 holds no
    n! x n float or index array; each row sum is that of one contiguous
    gathered row.
    """
    perms = itertools_perms(m.n)
    rows = np.arange(m.n)
    s = np.concatenate([m.a[rows, perms[i : i + (1 << 16)]].sum(axis=1) for i in range(0, len(perms), 1 << 16)])
    s = np.sort(s, kind="stable")
    scale = float(max(abs(s[0]), abs(s[-1]), 1e-300))
    starts = np.concatenate(([0], np.flatnonzero(np.diff(s) > exact._MERGE_RTOL * scale) + 1))
    counts = np.diff(np.concatenate((starts, [s.size])))
    stats = GammaProfile(m)
    values = (np.add.reduceat(s, starts) / counts - stats.mu) / math.sqrt(stats.sigma2)
    return values, counts


def ks_full_scan(x: np.ndarray, cum: np.ndarray | None = None) -> tuple[float, int]:
    """Phi at every point: the largest deviation and the first index attaining it.

    With ``cum``, F = cum/cum[-1] and F(x-) the previous F (0 first); without,
    the empirical CDF (i+1)/N and (i+1)/N - 1/N.
    """
    if cum is None:
        f_right = np.arange(1, x.size + 1) / x.size
        f_left = f_right - 1.0 / x.size
    else:
        f_right = cum / float(cum[-1])
        f_left = np.concatenate(([0.0], f_right[:-1]))
    phi = ndtr(x)
    dev = np.maximum(np.abs(f_right - phi), np.abs(f_left - phi))
    i = int(np.argmax(dev))
    return float(dev[i]), i


def kolmogorov_oracle(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    delta, i = ks_full_scan(values, np.cumsum(counts))
    return delta, float(values[i])


def lattice_matrices(n: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(n)
    p = rng.permutation(n) + 1.0
    q = rng.permutation(n) + 1.0
    return {
        "spearman": np.outer(p, q),
        "footrule": np.abs(p[:, None] - q[None, :]),
        "integers": rng.integers(-3, 4, (n, n)).astype(float),
    }


def signed_zero_matrix(n: int) -> np.ndarray:
    """-0.0 except a[0, 0] = 1 and a[0, 1] = -1: mu is +0.0, and S = 0 only on
    permutations whose entries are all -0.0, so the zero atom keeps the sign
    of their sum."""
    a = np.full((n, n), -0.0)
    a[0, :2] = 1.0, -1.0
    return a


def sparse_tie_matrix(n: int) -> np.ndarray:
    """Gaussian n x n whose rows 0 and 1 agree on columns 2 and 5: each
    permutation sending rows 0 and 1 to those columns ties with its swap,
    (n - 2)! pairs spread over the sorted values, so chunks with and without
    ties alternate."""
    a = rand_matrix(np.random.default_rng(109), n).a.copy()
    a[1, [2, 5]] = a[0, [2, 5]]
    return a


def negative_zeros(x: np.ndarray) -> int:
    return int(np.count_nonzero((x == 0) & np.signbit(x)))


class TestEnumerateMatchesOracle:
    """Atoms equal, bit for bit, a stable sort of the block-gather values."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_gaussian(self, n, scale):
        self.check(rand_matrix(np.random.default_rng(100 + n), n, scale))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9])
    @pytest.mark.parametrize("kind", ["spearman", "footrule", "integers"])
    def test_lattice(self, n, kind):
        self.check(ScoreMatrix(lattice_matrices(n)[kind]))

    @pytest.mark.parametrize("n", [2, 5, 7, 8, 9])
    def test_signed_zeros(self, n):
        self.check(ScoreMatrix(signed_zero_matrix(n)))

    def test_gaussian_n10(self):
        self.check(rand_matrix(np.random.default_rng(110), 10))

    def test_lattice_n10(self):
        self.check(ScoreMatrix(lattice_matrices(10)["footrule"]))

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("kind", ["gaussian", "spearman", "footrule", "integers", "signed zeros", "sparse ties"])
    def test_chunk_seams(self, monkeypatch, chunk, kind):
        # The lattice laws have runs across many chunks; the seam rule
        # must leave every atom's sum, count and check as in one chunk.
        # Sparse ties mix chunks without ties, which skip the merge, with
        # chunks whose last run spills past their first _ATOM_CHUNK values.
        # Chunk 1 costs a Python iteration per run, so the Gaussian laws,
        # nearly all one-value runs, take it at n = 8: 8! runs, not 9!.
        n = 8 if chunk == 1 else 9
        if kind == "gaussian":
            a = rand_matrix(np.random.default_rng(109), n).a
        elif kind == "signed zeros":
            a = signed_zero_matrix(8)
        elif kind == "sparse ties":
            a = sparse_tie_matrix(n)
        else:
            a = lattice_matrices(9)[kind]
        monkeypatch.setattr(exact, "_ATOM_CHUNK", chunk)
        self.check(ScoreMatrix(a))

    @staticmethod
    def check(m: ScoreMatrix):
        values, counts = enumerate_oracle(m)
        dist = enumerate_distribution(m)
        assert dist.values.tobytes() == values.tobytes()
        assert negative_zeros(dist.values) == negative_zeros(values)
        assert np.array_equal(dist.counts, counts)
        rep = kolmogorov_distance(dist)
        assert (rep.delta, rep.arg_x) == kolmogorov_oracle(values, counts)


class TestMergePath:
    """Only chunks with ties are merged by ``reduceat``; the rest keep their values."""

    @staticmethod
    def spy_on_merge(monkeypatch) -> list[int]:
        merged = []
        merge = exact._merge_runs
        monkeypatch.setattr(exact, "_merge_runs", lambda chunk, is_start: merged.append(chunk.size) or merge(chunk, is_start))
        return merged

    def test_tie_free_law_skips_the_merge(self, monkeypatch):
        merged = self.spy_on_merge(monkeypatch)
        dist = enumerate_distribution(rand_matrix(np.random.default_rng(109), 9))
        assert dist.values.size == math.factorial(9)
        assert merged == []

    def test_every_chunk_of_a_lattice_law_is_merged(self, monkeypatch):
        merged = self.spy_on_merge(monkeypatch)
        dist = enumerate_distribution(ScoreMatrix(lattice_matrices(9)["footrule"]))
        assert dist.values.size < 200
        # One call per chunk: the chunks tile the n! sorted values.
        assert len(merged) > 1
        assert sum(merged) == math.factorial(9)


class TestStatisticValues:
    """The kernel's n! values are numpy's row sums of the gathered rows."""

    @pytest.mark.parametrize("n", range(2, 11))
    @pytest.mark.parametrize("kind", ["gaussian", "integers", "signed zeros"])
    def test_equal_sorted_row_sums(self, n, kind):
        if kind == "gaussian":
            a = np.random.default_rng(200 + n).standard_normal((n, n))
        elif kind == "integers":
            a = lattice_matrices(n)["integers"]
        else:
            a = signed_zero_matrix(n)
        m = ScoreMatrix(a)
        want = np.sort(np.concatenate([m.a[np.arange(n), block].sum(axis=1) for block in perm_blocks(n)]))
        got = np.sort(exact._statistic_values(m))
        assert got.tobytes() == want.tobytes()
        assert negative_zeros(got) == negative_zeros(want)

    @staticmethod
    def peak(fn, m) -> int:
        tracemalloc.start()
        try:
            fn(m)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_enumeration_peak_memory(self):
        # The in-place merge peaks near 1.6 n!-long float64 arrays (the
        # values, uint32 cumulative counts and chunk temporaries), and the
        # kernel near 1.06 (its output and 24 values per column-set pair):
        # one more temporary of a quarter of n! values beside the output shows.
        m = rand_matrix(np.random.default_rng(3), 10)
        values_bytes = 8 * math.factorial(10)
        assert self.peak(enumerate_distribution, m) <= 2.0 * values_bytes
        assert self.peak(exact._statistic_values, m) <= 1.25 * values_bytes

    def test_merged_law_keeps_only_its_atoms(self):
        # The 10 x 10 Spearman law has a few hundred atoms: its arrays are
        # copies of them, not views of the 43.5 MB enumeration buffers.
        m = ScoreMatrix(lattice_matrices(10)["spearman"])
        tracemalloc.start()
        try:
            dist = enumerate_distribution(m)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert dist.values.base is None and dist.cum_counts.base is None
        assert dist.values.nbytes + dist.cum_counts.nbytes < 1e6
        assert held < 1e6

    def test_repeated_enumerations_do_not_grow_the_process(self):
        # Laws of few and of many atoms in turn, as a long-running caller
        # makes them.  Buffers split in place in the heap (by shrinking them
        # to the atoms) grew the process by up to one 29 MB value buffer per
        # round; freed whole, the peak settles in the first round.
        child = (
            "import resource\n"
            "import numpy as np\n"
            "from cclt import ScoreMatrix, enumerate_distribution\n"
            "rng = np.random.default_rng(5)\n"
            "p, q = rng.permutation(10) + 1.0, rng.permutation(10) + 1.0\n"
            "mats = [np.outer(p, q), rng.standard_normal((10, 10)), np.abs(p[:, None] - q)]\n"
            "mats.append(rng.standard_normal((9, 9)))\n"
            "for _ in range(4):\n"
            "    for a in mats:\n"
            "        enumerate_distribution(ScoreMatrix(a))\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=child_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        first, *_, last = (int(kb) * 1024 for kb in proc.stdout.split())  # ru_maxrss is in kB
        assert last - first < 8 * math.factorial(10) / 2

    def test_kolmogorov_peak_memory(self):
        # The scan reads the stored cumulative counts: arrays of n!/128 and
        # of _KS_CHUNK values, none as long as the law (3,628,755 atoms).
        dist = enumerate_distribution(rand_matrix(np.random.default_rng(3), 10))
        assert self.peak(kolmogorov_distance, dist) < 0.1 * 8 * math.factorial(10)

    def test_budget_refuses_before_allocating(self, monkeypatch):
        m = rand_matrix(np.random.default_rng(4), 9)
        # The n! float64 values and their uint32 cumulative counts.
        need = (8 + 4) * math.factorial(9)
        monkeypatch.setattr(exact, "_ENUM_BYTES", need - 1)
        called = []
        kernel = exact._statistic_values
        monkeypatch.setattr(exact, "_statistic_values", lambda m: called.append(m.n) or kernel(m))
        with pytest.raises(CapExceededError, match=f"n = 9: enumeration needs {need} bytes"):
            enumerate_distribution(m)
        assert called == []
        monkeypatch.setattr(exact, "_ENUM_BYTES", need)
        assert int(enumerate_distribution(m).counts.sum()) == math.factorial(9)
        assert called == [9]


class TestKolmogorov:
    def test_two_atom_value(self, two_by_two):
        rep = kolmogorov_distance(enumerate_distribution(two_by_two))
        assert rep.delta == pytest.approx(TWO_ATOM_DELTA, abs=1e-15)
        assert abs(rep.arg_x) == 1.0
        assert rep.method == "exact"
        assert rep.std_error is None

    def test_single_atom(self):
        dist = AtomDistribution(values=np.array([0.0]), cum_counts=np.cumsum([2]), n=2)
        assert kolmogorov_distance(dist).delta == pytest.approx(0.5)

    def test_delta_attained_at_reported_point(self, rng):
        dist = enumerate_distribution(rand_matrix(rng, 5))
        rep = kolmogorov_distance(dist)
        i = int(np.searchsorted(dist.values, rep.arg_x))
        cum = np.cumsum(dist.probs)
        left = cum[i - 1] if i > 0 else 0.0
        attained = max(abs(cum[i] - normal_cdf(rep.arg_x)), abs(left - normal_cdf(rep.arg_x)))
        assert attained == pytest.approx(rep.delta, abs=1e-12)

    def test_matches_dense_grid_oracle(self, rng):
        dist = enumerate_distribution(rand_matrix(rng, 6))
        rep = kolmogorov_distance(dist)
        values = dist.values
        cum = np.cumsum(dist.counts) / math.factorial(6)
        grid = np.concatenate(
            (
                np.linspace(values[0] - 3.0, values[-1] + 3.0, 4001),
                values,
                np.nextafter(values, -np.inf),
            )
        )
        idx = np.searchsorted(values, grid, side="right")
        step_cdf = np.concatenate(([0.0], cum))[idx]
        phi = np.array([normal_cdf(float(x)) for x in grid])
        brute = float(np.max(np.abs(step_cdf - phi)))
        assert brute == pytest.approx(rep.delta, abs=1e-12)

    def test_delta_within_unit_interval(self, rng):
        for n in (2, 4, 6):
            rep = kolmogorov_distance(enumerate_distribution(rand_matrix(rng, n)))
            assert 0.0 <= rep.delta <= 1.0

    def test_invariant_under_row_and_column_shifts(self, rng):
        m = rand_matrix(rng, 5)
        base = kolmogorov_distance(enumerate_distribution(m)).delta
        shifted = m.a.copy()
        shifted[2, :] += 3.7  # row shift
        shifted[:, 0] -= 1.9  # column shift
        moved = kolmogorov_distance(enumerate_distribution(ScoreMatrix(shifted))).delta
        assert moved == pytest.approx(base, abs=1e-10)

    def test_block_replication_stays_sane(self):
        rng = np.random.default_rng(5)
        m = rand_matrix(rng, 3)
        small = kolmogorov_distance(enumerate_distribution(m)).delta
        big_a = np.zeros((6, 6))
        big_a[:3, :3] = m.a
        big_a[3:, 3:] = m.a
        big = kolmogorov_distance(enumerate_distribution(ScoreMatrix(big_a))).delta
        assert 0.0 <= big <= 1.0
        assert big <= small + 0.05


@st.composite
def sorted_points(draw):
    """Sorted points of one shape: Gaussian, lattice with ties, saturated
    tails, two saturated halves (tied deviations), near-duplicates or
    heavy-tailed; N from 1 to 20,000."""
    size = draw(st.one_of(st.integers(1, 300), st.integers(1, 20_000)))
    kind = draw(st.sampled_from(["gauss", "lattice", "saturated", "halves", "near", "heavy"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gauss":
        x = rng.normal(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.5, 2.0)), size)
    elif kind == "lattice":
        x = rng.integers(-6, 7, size) * draw(st.sampled_from([0.1, 1 / 3, 0.5, 1.0]))
    elif kind == "saturated":
        x = rng.normal(0.0, 1.0, size)
        tail = rng.random(size) < draw(st.floats(0.0, 1.0))
        x[tail] = np.copysign(rng.uniform(9.0, 40.0, tail.sum()), x[tail])
    elif kind == "halves":
        x = rng.uniform(9.0, 40.0, size)
        x[: size // 2] *= -1.0
    elif kind == "near":
        base = rng.normal(0.0, 1.0, max(1, size // 8))[rng.integers(0, max(1, size // 8), size)]
        x = base + rng.integers(-2, 3, size) * np.spacing(base)
    else:
        x = rng.standard_cauchy(size)
    x.sort()
    return x


class TestKsScan:
    """``_ks_sup`` evaluates Phi at a few points and returns a full scan's result."""

    @given(x=sorted_points(), unit=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_equals_full_scan(self, x, unit, seed):
        delta, i = exact._ks_sup(x)
        want_delta, want_i = ks_full_scan(x)
        assert (np.float64(delta).tobytes(), i) == (np.float64(want_delta).tobytes(), want_i)
        rng = np.random.default_rng(seed)
        counts = np.ones(x.size, dtype=np.int64) if unit else rng.integers(1, 50, x.size)
        cum = np.cumsum(counts)
        delta, i = exact._ks_sup(x, cum)
        want_delta, want_i = ks_full_scan(x, cum)
        assert (np.float64(delta).tobytes(), i) == (np.float64(want_delta).tobytes(), want_i)

    @pytest.mark.parametrize("unit", [True, False])
    def test_tie_goes_to_the_first_index(self, unit):
        # Phi is 0 on the lower half and 1 on the upper one, so the last
        # lower point (inside a gap) and the first upper point (evaluated)
        # both deviate by exactly 1/2.
        x = np.concatenate((np.linspace(-30.0, -20.0, 128), np.linspace(20.0, 30.0, 128)))
        cum = None if unit else np.arange(1, 257)
        assert exact._ks_sup(x, cum) == ks_full_scan(x, cum) == (0.5, 127)

    @staticmethod
    def spy_on_phi(monkeypatch) -> list[int]:
        evaluated = []
        monkeypatch.setattr(exact, "ndtr", lambda x: evaluated.append(x.size) or ndtr(x))
        return evaluated

    def test_phi_at_few_atoms_of_exact_law(self, monkeypatch):
        dist = enumerate_distribution(rand_matrix(np.random.default_rng(10), 10))
        evaluated = self.spy_on_phi(monkeypatch)
        rep = kolmogorov_distance(dist)
        assert sum(evaluated) <= 0.02 * dist.values.size
        assert (rep.delta, rep.arg_x) == kolmogorov_oracle(dist.values, dist.counts)

    def test_phi_at_few_monte_carlo_samples(self, monkeypatch):
        evaluated = self.spy_on_phi(monkeypatch)
        monte_carlo_delta(rand_matrix(np.random.default_rng(30), 30), 10**6, seed=0)
        assert sum(evaluated) <= 0.02 * 10**6


class TestAtomValidation:
    def test_rejects_unsorted_values(self):
        with pytest.raises(InvalidMatrixError):
            AtomDistribution(values=np.array([1.0, 0.0]), cum_counts=np.cumsum([1, 1]), n=2)

    def test_rejects_wrong_total(self):
        with pytest.raises(InvalidMatrixError):
            AtomDistribution(values=np.array([0.0, 1.0]), cum_counts=np.cumsum([1, 2]), n=2)

    def test_rejects_empty(self):
        with pytest.raises(InvalidMatrixError):
            AtomDistribution(values=np.array([]), cum_counts=np.cumsum([]), n=2)

    @pytest.mark.parametrize("values, counts", [([0.0, 1.0], [2]), ([[0.0, 1.0]], [[1, 1]])])
    def test_rejects_mismatched_shapes(self, values, counts):
        with pytest.raises(InvalidMatrixError, match="matching 1-D arrays"):
            AtomDistribution(values=np.array(values), cum_counts=np.cumsum(counts, axis=-1), n=2)

    @pytest.mark.parametrize("counts", [[2, 0], [3, -1]])
    def test_rejects_nonpositive_counts(self, counts):
        with pytest.raises(InvalidMatrixError, match="positive"):
            AtomDistribution(values=np.array([0.0, 1.0]), cum_counts=np.cumsum(counts), n=2)

    @pytest.mark.parametrize("values", [[0.0, 0.0], [-0.0, 0.0], [math.inf, math.inf], [-math.inf, -math.inf]])
    def test_rejects_repeated_values(self, values):
        with pytest.raises(InvalidMatrixError, match="strictly increasing"):
            AtomDistribution(values=np.array(values), cum_counts=np.cumsum([1, 1]), n=2)

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_checks_cross_chunk_seams(self, monkeypatch, chunk):
        # The faults sit in the pair that spans the seam at atom 2.
        monkeypatch.setattr(exact, "_ATOM_CHUNK", chunk)
        with pytest.raises(InvalidMatrixError, match="strictly increasing"):
            AtomDistribution(values=np.array([0.0, 1.0, 1.0]), cum_counts=np.cumsum([2, 2, 2]), n=3)
        with pytest.raises(InvalidMatrixError, match="positive"):
            AtomDistribution(values=np.array([0.0, 1.0, 2.0]), cum_counts=np.cumsum([3, 3, 0]), n=3)
        dist = AtomDistribution(values=np.array([0.0, 1.0, 2.0]), cum_counts=np.cumsum([3, 2, 1]), n=3)
        assert dist.cum_counts.tolist() == [3, 5, 6]
        assert dist.counts.tolist() == [3, 2, 1]


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self, rng):
        m = rand_matrix(rng, 6)
        first = monte_carlo_delta(m, 20_000, seed=42)
        second = monte_carlo_delta(m, 20_000, seed=42)
        assert first == second

    @pytest.mark.parametrize("threads", [0, -1])
    def test_rejects_thread_count_below_one(self, rng, threads):
        with pytest.raises(ParameterError, match="threads must be >= 1"):
            monte_carlo_delta(rand_matrix(rng, 4), 10_000, seed=0, threads=threads)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"threads": 1.5}, "threads must be an integer, got 1.5"),
            ({"threads": "2"}, "threads must be an integer, got '2'"),
            ({"threads": None}, "threads must be an integer, got None"),
            ({"seed": -1}, r"seed must be in \[0, 2\^64\), got -1"),
            ({"seed": 1 << 64}, rf"seed must be in \[0, 2\^64\), got {1 << 64}"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": None}, "seed must be an integer, got None"),
        ],
    )
    def test_rejects_bad_threads_and_seeds_before_any_work(self, monkeypatch, kwargs, message):
        called = []
        monkeypatch.setattr(exact, "_as_profile", lambda m: called.append(m) or m)
        m = rand_matrix(np.random.default_rng(4), 4)
        with pytest.raises(ParameterError, match=f"^{message}$"):
            monte_carlo_delta(m, 10_000, **{"seed": 0, **kwargs})
        assert called == []

    def test_seed_range_ends_and_numpy_integers_accepted(self, two_by_two):
        top = monte_carlo_delta(two_by_two, 10_000, seed=(1 << 64) - 1)
        assert monte_carlo_delta(two_by_two, 10_000, seed=np.uint64((1 << 64) - 1)) == top
        assert monte_carlo_delta(two_by_two, 10_000, seed=np.int64(0), threads=np.int64(2)) == monte_carlo_delta(
            two_by_two, 10_000, seed=0
        )

    @pytest.mark.parametrize("threads", [1, 2])
    def test_scipy_is_loaded_only_before_threaded_sampling(self, threads):
        # Threaded sampling runs in a process that has imported scipy (see
        # ``monte_carlo_delta``); one thread samples without it.  This test
        # module imports scipy itself, so the check runs in a fresh process:
        # whether ``scipy.special`` is loaded at each ``default_rng`` call.
        child = (
            "import sys\n"
            "import numpy as np\n"
            "from cclt import ScoreMatrix, monte_carlo_delta\n"
            "default_rng = np.random.default_rng\n"
            "m = ScoreMatrix(default_rng(5).standard_normal((5, 5)))\n"
            "seen = ['scipy' in sys.modules]\n"
            "np.random.default_rng = lambda seed: seen.append('scipy.special' in sys.modules) or default_rng(seed)\n"
            f"monte_carlo_delta(m, 20_000, seed=0, threads={threads})\n"
            "print(seen)\n"
        )
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([False, threads > 1])

    def test_scipy_import_leaves_the_report_unchanged(self):
        # The import changes only timing: a report in a process that never
        # loads scipy, in one that imports ``scipy.special`` first, and at two
        # threads (which import it), as float.hex, over two batches.
        child = (
            "import sys\n"
            "import numpy as np\n"
            "from cclt import ScoreMatrix, monte_carlo_delta\n"
            "from cclt.exact import _MC_BATCH\n"
            "setting = sys.argv[1]\n"
            "if setting == 'imported':\n"
            "    import scipy.special\n"
            "m = ScoreMatrix(np.random.default_rng(7).standard_normal((7, 7)))\n"
            "r = monte_carlo_delta(m, _MC_BATCH + 4_321, seed=11, threads=2 if setting == 'threads' else 1)\n"
            "print(r.delta.hex(), r.arg_x.hex(), 'scipy' in sys.modules)\n"
        )
        reports = {}
        for setting in ("plain", "imported", "threads"):
            proc = subprocess.run(
                [sys.executable, "-c", child, setting], capture_output=True, text=True, env=child_env(), timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            *report, loaded = proc.stdout.split()
            assert loaded == str(setting != "plain")
            reports[setting] = report
        assert reports["plain"] == reports["imported"] == reports["threads"]

    def test_thread_count_does_not_change_result(self, rng):
        m = rand_matrix(rng, 5)
        serial = monte_carlo_delta(m, 600_000, seed=3)
        threaded = monte_carlo_delta(m, 600_000, seed=3, threads=4)
        assert serial.delta == threaded.delta
        assert serial.arg_x == threaded.arg_x

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunking_does_not_change_result(self, rng, monkeypatch, threads):
        # A full batch and a remainder.  Chunks of 64 elements (7 rows at
        # n = 9), the default and one whole batch must all give the report of
        # one ``permuted`` call per batch on a C-contiguous tile, bit for bit.
        # (From n = 8 on numpy's row sums depend on the gather's layout: a
        # broadcast view in place of the tile permutes to the same rows but
        # rounds many sums differently.)
        m = rand_matrix(rng, 9)
        samples = exact._MC_BATCH + 4_321
        sizes = exact._mc_batch_layout(samples)
        rows = np.arange(9)
        sums = [
            m.a[rows, np.random.default_rng(ss).permuted(np.tile(rows, (size, 1)), axis=1)].sum(axis=1)
            for ss, size in zip(np.random.SeedSequence(5).spawn(len(sizes)), sizes)
        ]
        stats = GammaProfile(m)
        s = np.sort((np.concatenate(sums) - stats.mu) / math.sqrt(stats.sigma2), kind="stable")
        grid = np.arange(1, samples + 1) / samples
        phi = ndtr(s)
        dev = np.maximum(np.abs(grid - phi), np.abs(grid - 1.0 / samples - phi))
        i = int(np.argmax(dev))
        # The sorted standardized sample, as handed to the Kolmogorov scan.
        seen = []
        scan = exact._ks_sup
        monkeypatch.setattr(exact, "_ks_sup", lambda x, *cum: seen.append(x.copy()) or scan(x, *cum))
        for chunk in (64, exact._MC_CHUNK, exact._MC_BATCH * 9):
            monkeypatch.setattr(exact, "_MC_CHUNK", chunk)
            report = monte_carlo_delta(m, samples, seed=5, threads=threads)
            assert np.array_equal(seen.pop(), s)
            assert (report.delta, report.arg_x) == (float(dev[i]), float(s[i]))

    @pytest.mark.parametrize("n, kind", [(12, "footrule"), (33, "integers")])
    def test_matches_gather_oracle(self, monkeypatch, n, kind):
        # The offset shuffle and flat ``take`` against a fancy-index gather
        # of permuted C-contiguous tiles, bit for bit: the sorted
        # standardized sample handed to the Kolmogorov scan, delta and arg_x.
        m = ScoreMatrix(lattice_matrices(n)[kind])
        samples = exact._MC_BATCH + 4_321
        sizes = exact._mc_batch_layout(samples)
        rows = np.arange(n)
        sums = [
            m.a[rows, np.random.default_rng(ss).permuted(np.tile(rows, (size, 1)), axis=1)].sum(axis=1)
            for ss, size in zip(np.random.SeedSequence(11).spawn(len(sizes)), sizes)
        ]
        stats = GammaProfile(m)
        s = np.sort((np.concatenate(sums) - stats.mu) / math.sqrt(stats.sigma2), kind="stable")
        grid = np.arange(1, samples + 1) / samples
        phi = ndtr(s)
        dev = np.maximum(np.abs(grid - phi), np.abs(grid - 1.0 / samples - phi))
        i = int(np.argmax(dev))
        seen = []
        scan = exact._ks_sup
        monkeypatch.setattr(exact, "_ks_sup", lambda x, *cum: seen.append(x.copy()) or scan(x, *cum))
        report = monte_carlo_delta(m, samples, seed=11, threads=2)
        assert seen.pop().tobytes() == s.tobytes()
        assert (report.delta, report.arg_x) == (float(dev[i]), float(s[i]))

    def test_close_to_exact_for_large_sample(self, rng):
        m = rand_matrix(rng, 5)
        exact = kolmogorov_distance(enumerate_distribution(m)).delta
        mc = monte_carlo_delta(m, 10**6, seed=0)
        assert mc.method == "monte-carlo"
        assert mc.std_error == pytest.approx(0.0005)
        assert abs(mc.delta - exact) <= 3.0 * mc.std_error

    def test_peak_memory_at_1e6_samples(self, rng):
        # The 8 MB sample and one batch's 8 MB of buffers; the Kolmogorov
        # scan adds no sample-sized array.
        m = rand_matrix(rng, 30)
        tracemalloc.start()
        try:
            monte_carlo_delta(m, 10**6, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6, peak

    def test_two_by_two_target(self, two_by_two):
        mc = monte_carlo_delta(two_by_two, 10**6, seed=1)
        assert mc.delta == pytest.approx(TWO_ATOM_DELTA, abs=0.002)

    def test_sample_floor(self, two_by_two):
        with pytest.raises(ParameterError):
            monte_carlo_delta(two_by_two, 9_999, seed=0)

    def test_samples_must_be_an_integer(self, two_by_two):
        with pytest.raises(ParameterError, match="samples must be an integer"):
            monte_carlo_delta(two_by_two, 1e5, seed=0)
        assert monte_carlo_delta(two_by_two, np.int64(10_000), seed=0) == monte_carlo_delta(two_by_two, 10_000, seed=0)

    def test_degenerate_matrix_rejected(self):
        with pytest.raises(DegenerateMatrixError):
            monte_carlo_delta(ScoreMatrix(np.zeros((3, 3))), 10_000, seed=0)

    def test_sample_budget_refuses_before_allocating(self, monkeypatch):
        # 8 TB of samples: numpy would raise MemoryError, not the cap error.
        called = []
        monkeypatch.setattr(exact, "_as_profile", lambda m: called.append(m) or m)
        m = rand_matrix(np.random.default_rng(12), 12)
        with pytest.raises(CapExceededError, match=f"{10**12} samples need {8 * 10**12} bytes"):
            monte_carlo_delta(m, 10**12, seed=0)
        assert called == []

    def test_sample_budget_boundary(self, monkeypatch, two_by_two):
        monkeypatch.setattr(exact, "_ENUM_BYTES", 8 * 20_000)
        with pytest.raises(CapExceededError, match="20001 samples need 160008 bytes"):
            monte_carlo_delta(two_by_two, 20_001, seed=0)
        assert monte_carlo_delta(two_by_two, 20_000, seed=0).method == "monte-carlo"
