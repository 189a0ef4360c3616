"""Brute-force oracles that only the tests use.

Each one evaluates a quantity of the package by its literal definition, with
no shared code path, so the fast implementations are checked against it.
"""

from __future__ import annotations

import cmath
from itertools import permutations as iter_permutations

import numpy as np

from cclt import ComplexScoreMatrix, FTerms, ScoreMatrix
from cclt.permtables import perm_blocks


def permanent_reference(matrix) -> complex:
    """Naive permutation-sum permanent, the independent oracle."""
    m = np.asarray(matrix, dtype=complex)
    n = len(m)
    return complex(sum(m[np.arange(n), block].prod(axis=1).sum() for block in perm_blocks(n)))


def f_terms_reference(Y: ComplexScoreMatrix, u: float) -> FTerms:
    """Literal nested-loop evaluation of the f sums (small n oracle).

    O(n^4 * n!); intended for n <= 4 cross-checks of the vectorised path.
    """
    y = Y.y
    n = Y.n

    def z(j, k, r, s):
        return y[j, r] - y[k, r] - y[j, s] + y[k, s]

    f1 = 0.0 + 0.0j
    f2 = 0.0 + 0.0j
    f3 = 0.0 + 0.0j
    idx = range(n)
    for perm in iter_permutations(idx):
        c_r = sum(y[j, perm[j]] for j in idx)
        w = cmath.exp(u * c_r)
        for j in idx:
            for k in idx:
                if k == j:
                    continue
                z1 = z(j, k, perm[j], perm[k])
                f1 += z1 * (1.0 - u * z1 - cmath.exp(-u * z1)) * w
                for l in idx:
                    if l in (j, k):
                        continue
                    z2 = z(j, l, perm[l], perm[j])
                    f2 += u * z1 * z1 * (1.0 - cmath.exp(u * z2)) * w
                    for mm in idx:
                        if mm in (j, k, l):
                            continue
                        z3 = z(k, mm, perm[mm], perm[k])
                        f3 += u * z1 * z1 * (1.0 - cmath.exp(u * z2 + u * z3)) * w
    f = f1 / (4.0 * n) + f2 / (n * n * (n - 1)) + f3 / (4.0 * n * n * (n - 1))
    return FTerms(f1=f1, f2=f2, f3=f3, f=f)


def quad_diff(m: ScoreMatrix, j: int, k: int, r: int, s: int) -> float:
    """Second difference a[j,r] - a[k,r] - a[j,s] + a[k,s] (1-based indices).

    Vanishes for j == k or r == s, flips sign under swapping j with k (or r
    with s), and is unchanged when computed from the centered matrix.
    """
    n = m.n
    for name, idx in (("j", j), ("k", k), ("r", r), ("s", s)):
        if not 1 <= idx <= n:
            raise IndexError(f"index {name}={idx} out of range 1..{n}")
    a = m.a
    # Grouped so that j == k and r == s give exact zeros and index swaps flip
    # the sign exactly.
    return float((a[j - 1, r - 1] - a[k - 1, r - 1]) - (a[j - 1, s - 1] - a[k - 1, s - 1]))


def g_clip(x: float, y: float) -> float:
    """Clipped square g(x, y) = x^2 * min(1, |y|).

    Satisfies g(x, y+z) <= g(x, y) + g(x, z), the exchange inequality
    g(x, c*y) + g(y, c*x) <= g(x, c*x) + g(y, c*y), and for c != 0 the lower
    bound x^2 - 4/(27 c^2) <= g(x, c*x).
    """
    return x * x * min(1.0, abs(y))
