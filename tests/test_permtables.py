from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from cclt.permtables import perm_blocks

MAX_BLOCK_ROWS = math.factorial(8)


def lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of a precedes row i of b in lexicographic order."""
    diff = b.astype(int) - a
    first = np.argmax(diff != 0, axis=1)
    return diff[np.arange(len(diff)), first] > 0


@pytest.mark.parametrize("n", range(10))
def test_blocks_are_itertools_order(n):
    blocks = list(perm_blocks(n))
    assert all(block.dtype == np.int8 and len(block) <= MAX_BLOCK_ROWS for block in blocks)
    assert np.array_equal(np.concatenate(blocks), np.array(list(itertools.permutations(range(n)))))


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
