"""Permanents, the permutation-statistic characteristic function, and its bounds.

The characteristic function of S = sum_j a[j, pi(j)] under a uniform random
permutation is a permanent with unit-modulus entries:

    phi(t) = perm( exp(i t a[j, r]) ) / n!.

Permanents are evaluated exactly by Glynn's formula

    perm(M) = 2^-(n-1) sum_{d in {+-1}^n, d_0 = 1} prod_i d_i prod_j sum_i d_i M[i, j]

in Gray-code order, O(2^(n-1) * n), by one kernel batched over matrices.  Its
terms add up to 2^(n-1) perm(M), where Ryser's add up to perm(M), so far less
cancels: phi(0) is within 1e-13 of 1 at n = 18, against 6e-9 with Ryser.
The tests check it against a naive permutation sum at small n.  Its one
Gray-code walk is split into contiguous step ranges run on threads
(``charfn_grid`` and ``evaluate_cf_grid`` take ``threads``; one thread is one
range); every range performs the same operations and the steps are summed in
order, so no value depends on the thread count.  A step's factors are its
high rows' column sums broadcast over the low rows' sign codes plus the codes'
sums; where numpy would add the broadcast sums over many short rows, they are
copied first and the codes' sums added contiguously, the same additions.

Three explicit inequalities for phi are implemented:

* a modulus bound,
      |phi(t)| <= ( mean over distinct index pairs of cos^2(t b / 2) )^(floor(n/2)/2),
  with the mean normalised by n^2 (n-1)^2, summed per row pair in O(n^3) per t;
* an exponential damping bound h_ell(t) for permutation sums restricted by
  fixing ell rows and columns,
      h_ell(t) = min(1, exp(ell - (n-ell-1)/(4(n-1)) * t^2 *
                              (sigma2 - gamma(2 kappa t)/4))) * [n >= ell];
* two bounds on |phi(t) - exp(i t mu - sigma2 t^2 / 2)|: an integral form
  (adaptive quadrature over an auxiliary variable u in [0, 1]) and a
  closed form, plus a simplified closed form available for n >= 6.

Each of phi, the restricted sums and the bounds has one implementation, over
an array of t (the ``_grid`` functions and ``_damping_many``; the integral
form integrates one quadrature lane per t), and its scalar call is a batch of
one.  They agree bit for bit, except that the Glynn kernel tabulates fewer sign
bits for a larger batch, so a permanent's last bits may depend on its batch.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .analytic import kappa
from .errors import (
    CapExceededError,
    IndexRangeError,
    InvalidMatrixError,
    ParameterError,
    _finite,
    _integer,
    _thread_count,
)
from .quadrature import adaptive_simpson_lanes
from .scores import GammaProfile, ScoreMatrix, _as_profile, require_nondegenerate


# Element budget of the kernel's sign-sum table: 2^16 complex values, 1 MB.
_BLOCK_ELEMS = 1 << 16
# Largest n of a permanent: ``charfn_grid`` and ``evaluate_cf_grid`` take it
# as their default cap, and every other entry point refuses above it.
PERM_CAP = 20
# Product elements (Gray steps x batch x 2^k) that each part of a split Gray
# walk must hold: a smaller part does not pay for its thread.
_PART_ELEMS = 1 << 18
# Most parts of one walk.  Each holds up to 1 MB of buffers, and no common
# host has more cores than this to run them on.
_MAX_PARTS = 64
# Elements of one stacked product op in a walk of two or more parts.  numpy
# releases the interpreter lock inside each op, so an op must far outlast a handoff.
_STACK_ELEMS = 1 << 15
# Row sums a walk holds between folds, 128 KB, unless its parts need more for
# one stacked op each.
_SUMS_ELEMS = 1 << 13
# Fewest elements of a factor op built as a copy and a contiguous add: below
# it, the two ops' call overhead outweighs the broadcast add's per-row loop.
_COPY_ELEMS = 1 << 10


def _gray_flip(step: int, flips: np.ndarray, source: np.ndarray, out: np.ndarray) -> None:
    """High sums at Gray step ``step`` > 0 into ``out``, from step - 1's in ``source``.

    High code g = step ^ (step >> 1) flips one sign, and g's parity is step's.
    ``flips[s, bit]`` is (-1)^s 2 times row k + 1 + bit.
    """
    bit = (step & -step).bit_length() - 1
    np.add(source, flips[(step ^ step >> 1) >> bit & 1, bit], out=out)


def _gray_part(low, sign_low, flips, first, last, sums, highs, prod, term) -> None:
    """Row sums of Glynn's terms at Gray steps ``first``..``last`` - 1 into ``sums``, a row per step.

    ``highs[0]`` holds the high rows' signed column sums at step ``first``.
    The walk goes on ``len(highs)`` steps at a time, each step's sums flipped
    from the step before's, and the stacked steps' factors are formed and
    multiplied in ``prod`` and ``term``.  Step s ends in slot
    (s - ``first``) % ``len(highs)``.

    Factor j is low[j] plus each step's column sum j broadcast over the codes.
    numpy adds a broadcast operand one row at a time, and with many short
    rows that loop costs more than the additions.  So where the op has more
    than one row, more than one code and at least ``_COPY_ELEMS`` elements,
    the sums are copied over the codes first and low[j] is added to the copy
    as one contiguous op, about 30% faster.  The additions are the same,
    operands in the same order, so the bits are too.
    """
    n, size, codes = low.shape
    stack = highs.shape[0]
    for start in range(first, last, stack):
        count = min(stack, last - start)
        for step in range(max(start, first + 1), start + count):
            _gray_flip(step, flips, highs[step - start - 1], highs[step - start])
        high, p, t = highs[:count, ..., None], prod[:count], term[:count]
        copy = codes > 1 and count * size > 1 and count * size * codes >= _COPY_ELEMS
        for j in range(n):
            out = t if j else p
            if copy:
                np.copyto(out, high[:, j])
                np.add(low[j], out, out=out)
            else:
                np.add(low[j], high[:, j], out=out)
            if j:
                p *= t
        p *= sign_low
        np.add.reduce(p, axis=2, out=sums[start - first : start - first + count])


def _gray_walk(mats, k, low, sign_low, high, parts) -> np.ndarray:
    """Glynn's signed sum over the Gray steps, from step 0's high sums ``high``, in ``parts`` contiguous ranges.

    The steps run in rounds of about ``_SUMS_ELEMS`` row sums.  Part 0 starts
    a round one flip on from the last part's last state; the caller's thread
    walks from each part's first state to the next part's.  The parts run in
    ``_gray_part``, part 0 here and the others on ``parts - 1`` workers (one
    part starts no pool), and the row sums are folded in step order.  Every
    buffer is made here, so the workers allocate none.  The flip table, up to
    2 (n - 1) MB, is C-contiguous, so a flip reads one block, not a strided
    column of ``mats``.
    """
    n, size, codes = low.shape
    steps = 1 << (n - 1 - k)
    flips = None
    if steps > 1:  # [sign, bit, j, b]: +-2 times row k + 1 + bit
        flips = np.empty((2, n - 1 - k, n, size), dtype=complex)
        np.multiply(np.reshape([2.0, -2.0], (2, 1, 1, 1)), mats[:, k + 1 :].transpose(1, 2, 0), out=flips)
    stack = max(1, _STACK_ELEMS // (size * codes)) if parts > 1 else 1
    # A power of two, so each round has the same steps, and each part a stack's worth.
    chunk = min(steps, 1 << max((_SUMS_ELEMS // size).bit_length() - 1, (parts * stack - 1).bit_length()))
    stack = min(stack, -(-chunk // parts))
    offsets = [chunk * p // parts for p in range(parts + 1)]
    tail = (chunk - 1 - offsets[-2]) % stack  # the slot of the last part's last state
    sums = np.empty((chunk, size), dtype=complex)
    highs = np.empty((parts, stack, n, size), dtype=complex)
    highs[0, 0] = high
    prod = np.empty((parts, stack, size, codes), dtype=complex)
    term = np.empty_like(prod)
    total = np.zeros(size, dtype=complex)
    with ThreadPoolExecutor(max_workers=parts - 1) if parts > 1 else nullcontext() as pool:
        for first in range(0, steps, chunk):
            if first:
                _gray_flip(first, flips, highs[-1, tail], highs[0, 0])
            for p in range(1, parts):
                source = highs[p - 1, 0]
                for step in range(first + offsets[p - 1] + 1, first + offsets[p] + 1):
                    _gray_flip(step, flips, source, highs[p, 0])
                    source = highs[p, 0]
            futures = [
                pool.submit(
                    _gray_part, low, sign_low, flips, first + offsets[p], first + offsets[p + 1],
                    sums[offsets[p] :], highs[p], prod[p], term[p],
                )
                for p in range(1, parts)
            ]
            _gray_part(low, sign_low, flips, first, first + offsets[1], sums, highs[0], prod[0], term[0])
            for future in futures:
                future.result()
            for step, row in enumerate(sums, first):
                if step & 1:
                    total -= row
                else:
                    total += row
    return total


def _perm_batch(mats: np.ndarray, threads: int = 1) -> np.ndarray:
    """Permanents of a [B, n, n] complex stack by Glynn's formula.

    Signed column sums of rows 1..k are tabulated for all 2^k sign codes, k as
    large as ``_BLOCK_ELEMS`` allows; ``_gray_walk`` walks the other rows'
    signs in Gray-code order.  Blocks are reduced by pairwise sums, as terms
    cancel.  The stack is taken C-contiguous, as the sums' rounding follows
    the memory layout.

    The walk is split into at most ``threads`` parts, at most ``_MAX_PARTS``
    and never more than the Gray steps, each of at least ``_PART_ELEMS``
    product elements, and at least one.  Every part performs the same
    operations on the same operands and the steps are folded in order, so
    the result does not depend on ``threads``.
    """
    mats = np.ascontiguousarray(mats)
    size, n, _ = mats.shape
    if n == 0 or size == 0:
        return np.ones(size, dtype=complex)
    if n * size > _BLOCK_ELEMS:
        step = _BLOCK_ELEMS // n
        return np.concatenate([_perm_batch(mats[s : s + step], threads) for s in range(0, size, step)])
    k = min(n - 1, (_BLOCK_ELEMS // (n * size)).bit_length() - 1)
    low = np.empty((n, size, 1 << k), dtype=complex)  # [j, b, code]
    low[:, :, 0] = mats[:, 1 : k + 1].sum(axis=1).T
    sign_low = np.ones(1 << k)
    for i in range(k):  # codes with bit i set give row 1 + i the sign -1
        np.subtract(low[:, :, : 1 << i], 2.0 * mats[:, 1 + i].T[:, :, None], out=low[:, :, 1 << i : 2 << i])
        sign_low[1 << i : 2 << i] = -sign_low[: 1 << i]
    high = (mats[:, 0] + mats[:, k + 1 :].sum(axis=1)).T  # [j, b], every high sign +1
    steps = 1 << (n - 1 - k)
    parts = max(1, min(threads, _MAX_PARTS, steps, (steps * size << k) // _PART_ELEMS))
    return _gray_walk(mats, k, low, sign_low, high, parts) / 2.0 ** (n - 1)


def permanent(matrix) -> complex:
    """Exact permanent of a square complex matrix by Glynn's formula, n <= ``PERM_CAP``.

    A NaN or infinite entry raises ``InvalidMatrixError``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ParameterError(f"permanent needs a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidMatrixError("matrix entries must be finite")
    n = m.shape[0]
    if n > PERM_CAP:
        raise CapExceededError(f"n = {n} exceeds the permanent cap {PERM_CAP}")
    return complex(_perm_batch(m[None])[0])


def _exp_perms(a: np.ndarray, ts: np.ndarray, threads: int = 1) -> np.ndarray:
    """perm(exp(i t a)) at each t of ``ts``, one Glynn batch."""
    return _perm_batch(np.exp(1j * ts[:, None, None] * a), threads)


def charfn(m: ScoreMatrix | GammaProfile, t: float) -> complex:
    """Characteristic function E exp(i t S) = perm(exp(i t a)) / n!, n <= ``PERM_CAP``."""
    return complex(charfn_grid(m, [t])[0])


def charfn_grid(m: ScoreMatrix | GammaProfile, ts, perm_cap: int = PERM_CAP, threads: int = 1) -> np.ndarray:
    """phi evaluated on an array of t values, one permanent batch over t; n > ``perm_cap`` raises.

    A profile is read through its ``matrix``, so no profile is built here.
    The kernel may split its Gray walk over up to ``threads`` threads (an
    integer >= 1, else ``ParameterError``); no value depends on the count.
    """
    ts = _finite(ts, "t")
    threads = _thread_count(threads)
    if isinstance(m, GammaProfile):
        m = m.matrix
    if m.n > perm_cap:
        raise CapExceededError(f"n = {m.n} exceeds the permanent cap {perm_cap}")
    return _exp_perms(m.a, ts, threads) / math.factorial(m.n)


def _gauss_cf_grid(profile: GammaProfile, ts: np.ndarray) -> np.ndarray:
    """exp(i t mu - sigma2 t^2 / 2) at each t of ``ts``."""
    return np.exp(1j * ts * profile.mu - profile.sigma2 * ts * ts / 2.0)


def gauss_cf(m: ScoreMatrix | GammaProfile, t: float) -> complex:
    """Characteristic function exp(i t mu - sigma2 t^2 / 2) of the matching normal."""
    ts = _finite(t, "t")
    return complex(_gauss_cf_grid(_as_profile(m), ts)[0])


def _cf_gap(profile: GammaProfile, ts) -> np.ndarray:
    """|phi(t) - exp(i t mu - sigma2 t^2 / 2)| at each t of the array ``ts``."""
    return np.abs(charfn_grid(profile.matrix, ts) - _gauss_cf_grid(profile, ts))


def charfn_bound_grid(m: ScoreMatrix | GammaProfile, ts) -> np.ndarray:
    """Modulus bound (mean cos^2(t b / 2))^(floor(n/2)/2) for |phi(t)| at each t.

    The mean over index quadruples with distinct rows and columns is normalised
    by n^2 (n-1)^2; row pair j < k adds (n(n-2) + |sum_r exp(i t d_r)|^2) / 2,
    d = a[k] - a[j].  Tight for the 2 x 2 matrix [[t, -t], [-t, t]].
    """
    ts = _finite(ts, "t")
    profile = _as_profile(m)
    n, a = profile.n, profile.matrix.a
    step = max(1, _BLOCK_ELEMS // (n * n))
    total = np.full(ts.shape, n * (n - 1.0) * n * (n - 2.0) / 2.0)
    for j in range(n - 1):
        for lo in range(0, ts.size, step):
            phase = ts[lo : lo + step, None, None] * (a[j + 1 :] - a[j])
            total[lo : lo + step] += (np.cos(phase).sum(axis=2) ** 2 + np.sin(phase).sum(axis=2) ** 2).sum(axis=1)
    return (total / (n * n * (n - 1.0) * (n - 1.0))) ** ((n // 2) / 2.0)


def charfn_bound(m: ScoreMatrix | GammaProfile, t: float) -> float:
    """Modulus bound for |phi(t)| at one t (see ``charfn_bound_grid``)."""
    return float(charfn_bound_grid(m, [t])[0])


def _damping_many(profile: GammaProfile, ts: np.ndarray, ell: float, gamma_2kt: np.ndarray) -> np.ndarray:
    """h_ell at each t, given gamma(2 kappa t) precomputed.

    h_ell(t) = min(1, exp(ell - (n-ell-1)/(4(n-1)) t^2 (sigma2 - gamma(2 kappa t)/4)))
    when n >= ell and 0 otherwise.  The variance enters through the same
    quadruple sum as gamma, which keeps sigma2 - gamma(.)/4 >= 0 termwise.
    """
    n = profile.n
    if n < ell:
        return np.zeros(ts.shape)
    damp = profile.sigma2_quad - gamma_2kt / 4.0
    exponent = ell - (n - ell - 1.0) / (4.0 * (n - 1.0)) * ts * ts * damp
    return np.minimum(1.0, np.exp(np.minimum(exponent, 0.0)))


def _damping(profile: GammaProfile, ts: np.ndarray, ell: float) -> np.ndarray:
    """h_ell at each t, with gamma(2 kappa t) evaluated here."""
    kap, _ = kappa()
    return _damping_many(profile, ts, ell, profile.gamma_many(2.0 * kap * ts))


def _weighted_terms(profile: GammaProfile, ts: np.ndarray, g_a, g_b, g_2k) -> np.ndarray:
    """h_2 g_a / 2 + 2(n-2)/(n(n-1)) h_3 g_b + (n-2)(n-3)/(n(n-1)) h_4 g_b at each t,
    h_ell from g_2k = gamma(2 kappa t); the h_3 term vanishes for n = 2, h_4 for n <= 3."""
    n = profile.n
    total = 0.5 * _damping_many(profile, ts, 2, g_2k) * g_a
    if n >= 3:
        total += 2.0 * (n - 2.0) / (n * (n - 1.0)) * _damping_many(profile, ts, 3, g_2k) * g_b
    if n >= 4:
        total += (n - 2.0) * (n - 3.0) / (n * (n - 1.0)) * _damping_many(profile, ts, 4, g_2k) * g_b
    return total


def h_ell(m: ScoreMatrix | GammaProfile, t: float, ell: float) -> float:
    """Damping bound h_ell(t) for permutation sums with ell rows and columns fixed."""
    ts = _finite(t, "t")
    if not ell >= 0:  # written so that NaN fails
        raise ParameterError(f"ell must be nonnegative, got {ell}")
    return float(_damping(_as_profile(m), ts, ell)[0])


def restricted_sum_grid(
    m: ScoreMatrix | GammaProfile, cols_removed, rows_removed, ts
) -> tuple[np.ndarray, np.ndarray]:
    """Restricted permutation sums and their damping bound at each t.

    ``cols_removed`` and ``rows_removed`` are equal-sized sets of 1-based
    column and row indices (sizes ell).  The left-hand side is

        | sum over bijections r from the remaining rows onto the remaining
          columns of exp(i t sum_j a[j, r(j)]) |  /  (n - ell)!,

    by one Glynn batch over t (n - ell <= ``PERM_CAP``); rhs = h_ell(t) >= lhs for every t.
    An index outside 1..n raises ``IndexRangeError``.
    """
    ts = _finite(ts, "t")
    profile = _as_profile(m)
    n = profile.n
    cols = sorted(set(_integer(c, "removed column") for c in cols_removed))
    rows = sorted(set(_integer(r, "removed row") for r in rows_removed))
    if len(cols) != len(cols_removed) or len(rows) != len(rows_removed):
        raise ParameterError("removed index sets must not contain duplicates")
    if len(cols) != len(rows):
        raise ParameterError("removed row and column sets must have equal size")
    for idx in cols + rows:
        if not 1 <= idx <= n:
            raise IndexRangeError(f"index {idx} out of range 1..{n}")
    ell, k = len(cols), n - len(cols)
    if k > PERM_CAP:
        raise CapExceededError(f"restricted sum needs a {k} x {k} permanent, above cap {PERM_CAP}")
    kept_rows = np.delete(profile.matrix.a, np.array(rows, dtype=int) - 1, axis=0)
    sub = np.delete(kept_rows, np.array(cols, dtype=int) - 1, axis=1)
    lhs = np.abs(_exp_perms(sub, ts)) / math.factorial(k)
    return lhs, _damping(profile, ts, ell)


def restricted_sum_check(
    m: ScoreMatrix | GammaProfile, cols_removed, rows_removed, t: float
) -> tuple[float, float]:
    """(lhs, rhs) of the restricted-sum bound at one t (see ``restricted_sum_grid``)."""
    lhs, rhs = restricted_sum_grid(m, cols_removed, rows_removed, [t])
    return float(lhs[0]), float(rhs[0])


def cf_diff_bound_integral_grid(
    m: ScoreMatrix | GammaProfile,
    ts,
    tol: float = 1e-10,
) -> np.ndarray:
    """Integral-form bound on |phi(t) - exp(i t mu - sigma2 t^2/2)| at each t.

    Integrates, over u in [0, 1] by adaptive Simpson quadrature to absolute
    tolerance ``tol``,

        t^2 u [ h_2(tu) gamma(tu/4) / 2
                + 2(n-2)/(n(n-1)) h_3(tu) gamma(tu/2)
                + (n-2)(n-3)/(n(n-1)) h_4(tu) gamma(tu/2) ]
        * exp(-(1-u^2) sigma2 t^2 / 2).

    The h_3 term vanishes for n = 2 and the h_4 term for n <= 3.  All t are
    integrated in one lanes call, one lane per t; a lane's value does not
    depend on the other t.  The bound is 0 at t = 0, where the integrand is
    not evaluated.  Raises ``ConvergenceError`` when a lane does not converge.

    Each quadrature step's points are evaluated in decreasing |t u| and their
    values put back in the step's order: the three gamma argument sets then
    reach ``gamma_split_many`` in ascending thresholds 1/|x|, which search its
    table fastest.  No value depends on that order, because every point is
    computed by elementwise operations alone.

    ``tol`` is Simpson's local acceptance target, not a bound on the error of
    the result: on a 14 x 14 Gaussian matrix over 25 points of [0, 6/sigma]
    the value at tol 1e-10 is up to 8.6e-9 above its value at tol 1e-14, and
    at two points up to 2.1e-10 below it.
    """
    ts = _finite(ts, "t")
    _finite(tol, "tol")
    profile = _as_profile(m)
    require_nondegenerate(profile.sigma2)
    sigma2 = profile.sigma2_quad
    kap, _ = kappa()

    def integrand(us: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        tu = ts[lanes] * us
        order = np.argsort(np.abs(tu))[::-1]  # decreasing |t u|
        tu, us, t = tu[order], us[order], ts[lanes[order]]
        stacked = profile.gamma_split_many(np.concatenate((tu / 4.0, tu / 2.0, 2.0 * kap * tu)))
        inner = _weighted_terms(profile, tu, *np.split(stacked, 3))
        values = np.empty_like(inner)
        values[order] = t * t * us * inner * np.exp(-(1.0 - us * us) * sigma2 * t * t / 2.0)
        return values

    # A lane over the empty interval [0, 0] is 0 and never calls the integrand.
    return adaptive_simpson_lanes(integrand, 0.0, (ts != 0.0).astype(float), tol)


def cf_diff_bound_integral(
    m: ScoreMatrix | GammaProfile,
    t: float,
    tol: float = 1e-10,
) -> float:
    """Integral-form bound at one t (see ``cf_diff_bound_integral_grid``)."""
    return float(cf_diff_bound_integral_grid(m, [t], tol=tol)[0])


@dataclass(frozen=True)
class ClosedFormBounds:
    """Closed-form CF-difference bounds; ``simplified`` requires n >= 6."""

    general: float
    simplified: float | None


def cf_diff_bound_closed_grid(
    m: ScoreMatrix | GammaProfile, ts
) -> tuple[np.ndarray, np.ndarray | None]:
    """Closed-form bounds on |phi(t) - exp(i t mu - sigma2 t^2/2)| at each t.

    The general form is

        t^2/4 gamma(t/6) h_2(t) + (n-2) t^2 / (n(n-1)) gamma(t/3) h_3(t)
        + (n-2)(n-3) t^2 / (2 n(n-1)) gamma(t/3) h_4(t),

    it dominates the integral-form bound.  For n >= 6 the coarser

        32 t^2 gamma(t/3) exp(-t^2/20 (sigma2 - gamma(2 kappa t)/4))

    is evaluated as well; below n = 6 the second array is None.
    """
    ts = _finite(ts, "t")
    profile = _as_profile(m)
    require_nondegenerate(profile.sigma2)
    kap, _ = kappa()
    stacked = profile.gamma_many(np.concatenate((ts / 6.0, ts / 3.0, 2.0 * kap * ts)))
    g16, g13, g2k = np.split(stacked, 3)
    t2 = ts * ts
    general = t2 / 2.0 * _weighted_terms(profile, ts, g16, g13, g2k)
    simplified = None
    if profile.n >= 6:
        simplified = 32.0 * t2 * g13 * np.exp(-t2 / 20.0 * (profile.sigma2_quad - g2k / 4.0))
    return general, simplified


def cf_diff_bound_closed(m: ScoreMatrix | GammaProfile, t: float) -> ClosedFormBounds:
    """Closed-form bounds at one t (see ``cf_diff_bound_closed_grid``)."""
    general, simplified = cf_diff_bound_closed_grid(m, [t])
    return ClosedFormBounds(
        general=float(general[0]),
        simplified=None if simplified is None else float(simplified[0]),
    )


@dataclass(frozen=True)
class CfEvaluation:
    """Characteristic function value at one t together with its bounds."""

    t: float
    phi: complex
    gauss: complex
    modulus_bound: float
    diff_bound_integral: float
    diff_bound_closed: float
    diff_bound_closed_simplified: float | None

    def as_dict(self) -> dict:
        """The fields, with ``phi`` and ``gauss`` as {"re", "im"}."""
        report = asdict(self)
        for key in ("phi", "gauss"):
            report[key] = {"re": report[key].real, "im": report[key].imag}
        return report


def evaluate_cf_grid(
    m: ScoreMatrix | GammaProfile,
    ts,
    tol: float = 1e-10,
    perm_cap: int = PERM_CAP,
    threads: int = 1,
) -> list[CfEvaluation]:
    """Evaluate phi, the matching normal CF, and all three bounds at each t; n > ``perm_cap`` raises.

    phi's permanents use up to ``threads`` threads (see ``charfn_grid``); no value depends on it.
    """
    ts = _finite(ts, "t")
    _finite(tol, "tol")
    threads = _thread_count(threads)
    profile = _as_profile(m)
    phis = charfn_grid(profile.matrix, ts, perm_cap=perm_cap, threads=threads)
    gauss = _gauss_cf_grid(profile, ts)
    modulus = charfn_bound_grid(profile, ts)
    integral = cf_diff_bound_integral_grid(profile, ts, tol=tol)
    closed, simplified = cf_diff_bound_closed_grid(profile, ts)
    return [
        CfEvaluation(
            t=float(t),
            phi=complex(phis[i]),
            gauss=complex(gauss[i]),
            modulus_bound=float(modulus[i]),
            diff_bound_integral=float(integral[i]),
            diff_bound_closed=float(closed[i]),
            diff_bound_closed_simplified=None if simplified is None else float(simplified[i]),
        )
        for i, t in enumerate(ts)
    ]


def evaluate_cf(
    m: ScoreMatrix | GammaProfile,
    t: float,
    tol: float = 1e-10,
) -> CfEvaluation:
    """Evaluate phi(t), the matching normal CF, and all three bounds at one t."""
    return evaluate_cf_grid(m, [t], tol=tol)[0]
