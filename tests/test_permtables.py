from __future__ import annotations

import math

import numpy as np
import pytest

from cclt.permtables import perm_rows
from conftest import itertools_perms

MAX_BLOCK_ROWS = math.factorial(8)


def column_choices(n: int) -> np.ndarray:
    """The int8 matrix whose row i is range(n): ``perm_rows`` of it yields the blocks."""
    return np.tile(np.arange(n, dtype=np.int8), (n, 1))


def lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of a precedes row i of b in lexicographic order."""
    diff = b.astype(int) - a
    first = np.argmax(diff != 0, axis=1)
    return diff[np.arange(len(diff)), first] > 0


@pytest.mark.parametrize("n", range(10))
def test_blocks_are_itertools_order(n):
    blocks = list(perm_rows(column_choices(n)))
    assert all(block.dtype == np.int8 and len(block) <= MAX_BLOCK_ROWS for block in blocks)
    assert np.array_equal(np.concatenate(blocks), itertools_perms(n))


def test_n10_rows_are_distinct_and_increasing():
    rows = 0
    last = None
    for block in perm_rows(column_choices(10)):
        assert len(block) <= MAX_BLOCK_ROWS
        assert (np.sort(block, axis=1) == np.arange(10)).all()
        assert lex_less(block[:-1], block[1:]).all()
        if last is not None:
            assert lex_less(last, block[:1]).all()
        last = block[-1:]
        rows += len(block)
    # Strictly increasing rows are distinct, so these are all of S_10.
    assert rows == math.factorial(10)


def random_square(n: int, dtype) -> np.ndarray:
    rng = np.random.default_rng(n)
    if dtype == np.int8:
        return rng.integers(-128, 128, (n, n)).astype(np.int8)
    a = rng.standard_normal((n, n))
    if dtype == np.complex128:
        a = a + 1j * rng.standard_normal((n, n))
    return a


@pytest.mark.parametrize("dtype", [np.float64, np.complex128, np.int8])
@pytest.mark.parametrize("n", range(1, 11))
def test_rows_are_the_block_gather_bit_for_bit(n, dtype):
    a = random_square(n, dtype)
    perms = itertools_perms(n)
    start = 0
    for rows in perm_rows(a):
        assert len(rows) <= MAX_BLOCK_ROWS
        gathered = a[np.arange(n), perms[start : start + len(rows)]]
        assert rows.dtype == a.dtype and rows.flags.c_contiguous
        assert rows.shape == gathered.shape
        assert rows.tobytes() == gathered.tobytes()
        start += len(rows)
    assert start == len(perms)


def test_yielded_rows_do_not_alias():
    a = random_square(9, np.float64)
    held = list(perm_rows(a))
    assert len(held) == 9
    for i, rows in enumerate(held):
        assert rows.base is None
        assert not any(np.shares_memory(rows, other) for other in held[i + 1 :])
    assert not any(np.shares_memory(rows, a) for rows in held)
