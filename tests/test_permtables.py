from __future__ import annotations

import math

import numpy as np
import pytest

from cclt.permtables import _table, perm_blocks
from conftest import itertools_perms

MAX_BLOCK_ROWS = math.factorial(7)


def lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of a precedes row i of b in lexicographic order."""
    diff = b.astype(int) - a
    first = np.argmax(diff != 0, axis=1)
    return diff[np.arange(len(diff)), first] > 0


@pytest.mark.parametrize("n", range(10))
def test_blocks_are_itertools_order(n):
    blocks = list(perm_blocks(n))
    assert all(block.dtype == np.int8 and len(block) <= MAX_BLOCK_ROWS for block in blocks)
    assert np.array_equal(np.concatenate(blocks), itertools_perms(n))


def test_n10_rows_are_distinct_and_increasing():
    rows = 0
    last = None
    for block in perm_blocks(10):
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
    # The gather every caller takes through a block, a[arange(n), block],
    # gives the rows of the itertools permutations bit for bit.
    a = random_square(n, dtype)
    perms = itertools_perms(n)
    start = 0
    for block in perm_blocks(n):
        rows = a[np.arange(n), block]
        gathered = a[np.arange(n), perms[start : start + len(block)]]
        assert rows.dtype == a.dtype and rows.flags.c_contiguous
        assert rows.shape == gathered.shape
        assert rows.tobytes() == gathered.tobytes()
        start += len(block)
    assert start == len(perms)


def test_yielded_rows_do_not_alias():
    # Blocks are fresh, writable, C-contiguous int8, sharing no memory with
    # each other or with the cached table.
    held = list(perm_blocks(9))
    assert len(held) == 72  # 9! / 7!
    for i, block in enumerate(held):
        assert block.dtype == np.int8 and block.flags.c_contiguous and block.flags.writeable
        assert block.base is None
        assert not any(np.shares_memory(block, other) for other in held[i + 1 :])
        assert not np.shares_memory(block, _table(7))


@pytest.mark.parametrize("k", range(9))
def test_table_is_itertools_order(k):
    table = _table(k)
    assert table.dtype == np.int8 and not table.flags.writeable
    assert np.array_equal(table, itertools_perms(k))
