"""An exact integral identity for permanents of entrywise exponentials.

For a complex n x n matrix Y (n >= 2) define, over permutations r,

    c_r   = sum_j y[j, r(j)],
    alpha = (1/n) sum_{j,r} y[j, r],
    beta  = 1/(n-1) sum_{j,r} yt[j, r]^2     (algebraic squares, yt doubly
                                              centered; no conjugation),

so that perm(exp(y)) / n! = (1/n!) sum_r exp(c_r).  The identity states

    (1/n!) sum_r exp(c_r) - exp(alpha + beta/2)
        = (1/n!) * integral_0^1 f(u) exp((1-u) alpha + (1-u^2) beta/2) du,

where f(u) = f1(u)/(4n) + f2(u)/(n^2(n-1)) + f3(u)/(4 n^2 (n-1)) collects
permutation sums over the second differences

    z[j, k, r, s] = y[j, r] - y[k, r] - y[j, s] + y[k, s]:

    f1(u) = sum_{j != k} sum_r  z1 (1 - u z1 - exp(-u z1)) exp(u c_r),
    f2(u) = sum_{(j,k,l) distinct} sum_r  u z1^2 (1 - exp(u z2)) exp(u c_r),
    f3(u) = sum_{(j,k,l,m) distinct} sum_r u z1^2
            (1 - exp(u z2 + u z3)) exp(u c_r),

with z1 = z[j,k,r(j),r(k)], z2 = z[j,l,r(l),r(j)], z3 = z[k,m,r(m),r(k)].
f2 vanishes identically for n = 2 and f3 for n <= 3.  Pointwise in u the
integrand satisfies  sum_r (c_r - alpha - u beta) exp(u c_r) = f(u).

Specialising y = i t a for a real score matrix reproduces the
characteristic-function difference phi(t) - exp(i t mu - sigma2 t^2 / 2)
with alpha = i t mu and beta = -sigma2 t^2.

The permutation sums are evaluated in vectorised form, one pair-difference
tensor per block of ``perm_blocks`` (at most 7! permutations; all n! at
n <= 7), checked in the tests against a literal nested-loop evaluation at
small n; this whole module is itself a verification oracle rather than a
production path.  Every permutation sum here refuses n >
``permtables.ENUM_CAP`` with ``CapExceededError`` before its walk.

``identity_check`` integrates the right-hand side by Gauss-Legendre at orders
8, 16, 32 and 64: the integrand is a finite sum of exponentials times
polynomials in u, hence entire, and the rule converges geometrically on it.
``tol`` is an absolute bound on the difference of the last two orders; when
no two successive orders agree to it, ``ConvergenceError`` is raised.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, IndexRangeError, InvalidMatrixError, ParameterError, _finite, _integer
from .permanents import permanent
from .permtables import ENUM_CAP, perm_blocks
from .quadrature import gauss_legendre
from .scores import _double_center, _second_differences


@dataclass(frozen=True)
class ComplexScoreMatrix:
    """Complex n x n matrix with n >= 2 and finite entries (read-only)."""

    y: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=complex, order="C")
        if y.ndim != 2 or y.shape[0] != y.shape[1]:
            raise InvalidMatrixError(f"matrix must be square, got shape {y.shape}")
        if y.shape[0] < 2:
            raise InvalidMatrixError(f"matrix needs n >= 2, got n = {y.shape[0]}")
        if not np.all(np.isfinite(y)):
            raise InvalidMatrixError("matrix entries must be finite")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class IdentityTerms:
    """alpha and beta of the identity."""

    alpha: complex
    beta: complex


def identity_terms(Y: ComplexScoreMatrix) -> IdentityTerms:
    """Compute alpha and beta (pair-sum form)."""
    y = Y.y
    n = Y.n
    alpha = complex(y.sum() / n)
    yt = _double_center(y)
    beta = complex((yt * yt).sum() / (n - 1))
    return IdentityTerms(alpha=alpha, beta=beta)


def beta_quadruple(Y: ComplexScoreMatrix) -> complex:
    """beta via the quadruple route sum z^2 / (4 n^2 (n-1)) over distinct pairs.

    z^2 is exactly symmetric under j <-> k and under r <-> s, so the sum is
    4 times its quarter j < k, s < r (``scores._second_differences``) and
    beta = quarter sum / (n^2 (n-1)).  Agrees with the pair-sum beta of
    ``identity_terms`` up to roundoff; both are kept as independent
    evaluation paths.
    """
    n = Y.n
    z = _second_differences(Y.y)
    return complex((z * z).sum() / (n * n * (n - 1)))


def _pair_diff_tensor(y: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-permutation c_r and the matrix z1[p, j, k] = z[j,k,r(j),r(k)]."""
    n = y.shape[1]
    gathered = y.T[block]  # gathered[p, a, b] = y[b, r(a)]
    diag = gathered[:, np.arange(n), np.arange(n)]
    c = diag.sum(axis=1)
    z1 = diag[:, :, None] + diag[:, None, :] - gathered - np.swapaxes(gathered, 1, 2)
    return c, z1


def _chunks(y: np.ndarray):
    """c, z1 and five work arrays for each block of ``perm_blocks``.

    The work arrays take z1's memory layout, as the temporaries of z1's
    expressions do: numpy sums over axes in memory order, so the layout
    fixes the rounding of every sum in ``_f_parts``.
    """
    for block in perm_blocks(y.shape[0]):
        c, z1 = _pair_diff_tensor(y, block)
        yield c, z1, [np.empty_like(z1) for _ in range(5)]


def _f_parts(
    u: float, n: int, c: np.ndarray, z1: np.ndarray, work: list[np.ndarray]
) -> tuple[complex, complex, complex]:
    """f1, f2, f3 contributions of one permutation block (vectorised sums).

    Every block-sized temporary is written into ``work`` (from ``_chunks``),
    by the same operations in the same order as the plain expressions

        f1 = sum z1 (1 - u z1 - expnz) weight,
        f2 = u sum (row_a row_b - collide) weight,
        f3 = u sum z1^2 ((n-2)(n-3) - (s_j s_k - t_jk)) weight,

    with z1 and z1^2 the first operand of their products.  numpy's complex
    product is not bitwise commutative, and its temporary elision would swap
    the operands of ``z1 * temporary`` for large blocks; one fixed order keeps
    the sums independent of the numpy build.
    """
    expnz, z1_sq, t1, t2, t3 = work
    weight = np.exp(u * c)
    np.multiply(-u, z1, out=expnz)
    np.exp(expnz, out=expnz)  # expnz[p, j, k] = exp(u z[j,k,r(k),r(j)])

    np.multiply(u, z1, out=t1)
    np.subtract(1.0, t1, out=t1)
    t1 -= expnz
    np.multiply(z1, t1, out=t1)
    f1 = (t1.sum(axis=(1, 2)) * weight).sum()
    f2 = 0.0 + 0.0j
    f3 = 0.0 + 0.0j
    if n >= 3:
        np.multiply(z1, z1, out=z1_sq)
        one_minus = np.subtract(1.0, expnz, out=t2)
        row_a = z1_sq.sum(axis=2)
        row_b = one_minus.sum(axis=2)
        collide = np.multiply(z1_sq, one_minus, out=t1).sum(axis=2)
        f2 = u * (((row_a * row_b - collide).sum(axis=1)) * weight).sum()
    if n >= 4:
        row_q = expnz.sum(axis=2)
        expnz_t = np.swapaxes(expnz, 1, 2)
        t_jk = np.einsum("pjl,pkl->pjk", expnz, expnz, out=t1)
        t_jk -= expnz_t
        t_jk -= expnz
        s_j = np.subtract(row_q[:, :, None] - 1.0, expnz, out=t2)
        s_k = np.subtract(row_q[:, None, :] - 1.0, expnz_t, out=t3)
        pair_sum = np.multiply(s_j, s_k, out=t2)
        pair_sum -= t_jk
        count = (n - 2.0) * (n - 3.0)
        terms = np.multiply(z1_sq, np.subtract(count, pair_sum, out=t2), out=t2)
        f3 = u * (terms.sum(axis=(1, 2)) * weight).sum()
    return complex(f1), complex(f2), complex(f3)


def _combine_f(n: int, f1: complex, f2: complex, f3: complex) -> complex:
    return f1 / (4.0 * n) + f2 / (n * n * (n - 1)) + f3 / (4.0 * n * n * (n - 1))


def _f_sums(y: np.ndarray, us) -> list[list[complex]]:
    """[f1, f2, f3] at each u of ``us`` from one block walk, bit for bit as
    a walk at that u alone (each u's parts are added in block order)."""
    n = y.shape[0]
    sums = [[0.0 + 0.0j] * 3 for _ in us]
    for c, z1, work in _chunks(y):
        for acc, u in zip(sums, us):
            for i, part in enumerate(_f_parts(u, n, c, z1, work)):
                acc[i] += part
    return sums


@dataclass(frozen=True)
class FTerms:
    """The three permutation sums and their weighted combination f(u)."""

    f1: complex
    f2: complex
    f3: complex
    f: complex


def f_terms(Y: ComplexScoreMatrix, u: float) -> FTerms:
    """Evaluate f1(u), f2(u), f3(u), and f(u) by exact permutation sums."""
    _finite(u, "u")
    n = Y.n
    if n > ENUM_CAP:
        raise CapExceededError(f"f-terms need {n}! permutation terms, above cap {ENUM_CAP}")
    [(f1, f2, f3)] = _f_sums(Y.y, [u])
    return FTerms(f1=f1, f2=f2, f3=f3, f=_combine_f(n, f1, f2, f3))


def f_residual(Y: ComplexScoreMatrix, u: float) -> float:
    """Pointwise defect |sum_r (c_r - alpha - u beta) exp(u c_r) - f(u)|.

    Zero up to roundoff for every u in [0, 1]; this is the derivative-form
    identity underlying the integral identity.
    """
    _finite(u, "u")
    n = Y.n
    if n > ENUM_CAP:
        raise CapExceededError(f"residual needs {n}! permutation terms, above cap {ENUM_CAP}")
    terms = identity_terms(Y)
    direct = 0.0 + 0.0j
    f_val = 0.0 + 0.0j
    for c, z1, work in _chunks(Y.y):
        direct += ((c - terms.alpha - u * terms.beta) * np.exp(u * c)).sum()
        f_val += _combine_f(n, *_f_parts(u, n, c, z1, work))
    return abs(complex(direct) - complex(f_val))


@dataclass(frozen=True)
class IdentityCheck:
    """Both sides of the permanent identity and their residual."""

    lhs: complex
    rhs: complex
    residual: float


def _identity_lhs(Y: ComplexScoreMatrix, terms: IdentityTerms) -> complex:
    """The identity's left side, perm(exp(y))/n! - exp(alpha + beta/2), from Y's ``identity_terms``."""
    return permanent(np.exp(Y.y)) / math.factorial(Y.n) - cmath.exp(terms.alpha + terms.beta / 2.0)


def identity_check(Y: ComplexScoreMatrix, tol: float = 1e-10) -> IdentityCheck:
    """Evaluate both sides of the permanent identity.

    lhs = perm(exp(y))/n! - exp(alpha + beta/2) with the permanent computed by
    Glynn's formula; rhs integrates f(u) exp((1-u) alpha + (1-u^2) beta/2)
    over [0, 1] by Gauss-Legendre (``quadrature.gauss_legendre``), the
    integrand being entire in u.  ``tol`` bounds the absolute difference
    between the last two Gauss-Legendre orders of rhs, and the residual stays
    within a small multiple of it.  Each order evaluates f at all its nodes
    in one walk over the permutations (``_f_sums``), so memory is set by one
    block of ``perm_blocks``, not by n!.  Raises ``ConvergenceError`` when no two
    successive orders agree to ``tol`` (entries too large for double
    precision to resolve the integral), rather than return an unconverged
    rhs.
    """
    _finite(tol, "tol")
    if not tol > 0:
        raise ParameterError(f"tol must be positive, got {tol}")
    n = Y.n
    if n > ENUM_CAP:
        raise CapExceededError(f"identity check needs {n}! permutation terms, above cap {ENUM_CAP}")
    fact = math.factorial(n)
    terms = identity_terms(Y)
    lhs = _identity_lhs(Y, terms)

    def integrand(us: np.ndarray) -> np.ndarray:
        # Python complex per node: numpy's complex / real multiplies by 1/real.
        f_vals = np.array([_combine_f(n, *parts) for parts in _f_sums(Y.y, us)])
        return f_vals * np.exp((1.0 - us) * terms.alpha + (1.0 - us * us) * terms.beta / 2.0)

    rhs = gauss_legendre(integrand, 0.0, 1.0, tol=tol * fact) / fact
    return IdentityCheck(lhs=complex(lhs), rhs=complex(rhs), residual=abs(lhs - rhs))


def swap_identity_check(Y: ComplexScoreMatrix, j: int, k: int) -> float:
    """Residual of the row-exchange identity for a fixed test family.

    For any function g of two indices,

        sum_r g(r(j), r(k)) exp(c_r)
            = sum_r g(r(k), r(j)) exp(z[j,k,r(k),r(j)]) exp(c_r),

    because swapping the images of j and k permutes the summands.  Checked
    here for g(v, w) = v + 2w and g(v, w) = v * w over 1-based index values;
    returns the larger of the two residuals.  A j or k outside 1..n raises
    ``IndexRangeError``.
    """
    n = Y.n
    j, k = _integer(j, "j"), _integer(k, "k")
    if j == k:
        raise ParameterError("j and k must be distinct")
    for name, idx in (("j", j), ("k", k)):
        if not 1 <= idx <= n:
            raise IndexRangeError(f"index {name}={idx} out of range 1..{n}")
    if n > ENUM_CAP:
        raise CapExceededError(f"swap check needs {n}! permutation terms, above cap {ENUM_CAP}")
    jj, kk = j - 1, k - 1
    worst = 0.0
    for g in (lambda v, w: v + 2.0 * w, lambda v, w: v * w):
        lhs = 0.0 + 0.0j
        rhs = 0.0 + 0.0j
        for block in perm_blocks(n):
            c, z1 = _pair_diff_tensor(Y.y, block)
            weight = np.exp(c)
            rj = block[:, jj] + 1.0
            rk = block[:, kk] + 1.0
            lhs += (g(rj, rk) * weight).sum()
            # z[j,k,r(k),r(j)] = -z1[p, j, k]
            rhs += (g(rk, rj) * np.exp(-z1[:, jj, kk]) * weight).sum()
        worst = max(worst, abs(complex(lhs) - complex(rhs)))
    return worst
