from __future__ import annotations

import itertools
import math
import os
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import cclt
from cclt import ScoreMatrix

# One line per acceptance criterion, echoed after the run (see the
# pytest_terminal_summary hook below).
acceptance_lines: list[str] = []


def child_env() -> dict:
    """This environment with the imported ``cclt``'s source folder first on PYTHONPATH."""
    src = str(Path(cclt.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def pytest_terminal_summary(terminalreporter):
    failed = [
        rep.nodeid.split("::")[-1]
        for rep in terminalreporter.stats.get("failed", [])
        if "test_acceptance" in rep.nodeid
    ]
    if not acceptance_lines and not failed:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)
    for name in failed:
        terminalreporter.write_line(f"ACCEPTANCE {name}: FAIL (see failure detail above)")


def rand_matrix(rng: np.random.Generator, n: int, scale: float = 1.0) -> ScoreMatrix:
    return ScoreMatrix(scale * rng.standard_normal((n, n)))


def rand_complex_entries(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))


def row_pair_corpus(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    """Entries for the row-pair oracle tests: scales, lattices and cancellation."""
    p = rng.permutation(n) + 1.0
    q = rng.permutation(n) + 1.0
    spike = 1e-3 * rng.standard_normal((n, n))
    spike[rng.integers(n), rng.integers(n)] = 1e6
    return {
        "gauss-0.1": 0.1 * rng.standard_normal((n, n)),
        "gauss-1": rng.standard_normal((n, n)),
        "gauss-10": 10.0 * rng.standard_normal((n, n)),
        "spearman": np.outer(p, q),
        "footrule": np.abs(p[:, None] - q[None, :]),
        "integers": rng.integers(-3, 4, (n, n)).astype(float),
        "near-1e6": 1e6 + rng.uniform(-1e-3, 1e-3, (n, n)),
        "spike": spike,
    }


def second_difference_tensor(a: np.ndarray) -> np.ndarray:
    """The full n x n x n x n table b[j, k, r, s] = (a[j, r] - a[k, r]) - (a[j, s] - a[k, s])."""
    row_diff = a[:, None, :] - a[None, :, :]
    return row_diff[:, :, :, None] - row_diff[:, :, None, :]


def literal_tables(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(b^2, |b|) over all n^2 (n-1)^2 quadruples with j != k and r != s: the literal oracle."""
    off_rows, off_cols = np.nonzero(~np.eye(a.shape[0], dtype=bool))
    b = second_difference_tensor(np.asarray(a))[off_rows, off_cols][:, off_rows, off_cols].ravel()
    return b * b, np.abs(b)


@lru_cache(maxsize=None)
def itertools_perms(n: int) -> np.ndarray:
    """All n! permutations of range(n) from ``itertools``, as read-only int8 rows."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    rows = math.factorial(n)
    table = np.fromiter(flat, dtype=np.int8, count=rows * n).reshape(rows, n)
    table.setflags(write=False)
    return table


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


@pytest.fixture
def two_by_two() -> ScoreMatrix:
    return ScoreMatrix([[1.0, -1.0], [-1.0, 1.0]])
