"""The package's one permutation source.

Every exhaustive sum over the symmetric group iterates ``perm_blocks(n)``:
all n! permutations of range(n) as int8 rows of 0-based column choices, in
the lexicographic order of ``itertools.permutations``.  A block fixes its
first n - k entries, k = min(n, 8), and maps the one cached table of the k!
permutations of range(k) onto the remaining values, so it has at most 8!
rows and no caller holds the n! x n table.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Iterator

import numpy as np

_TABLE_N = 8


@lru_cache(maxsize=None)
def _table(k: int) -> np.ndarray:
    """The k! permutations of range(k) in lexicographic order, read-only int8.

    Built size by size: the permutations of range(s) that start with v are v
    followed by those of range(s - 1) with every entry >= v raised by one.
    """
    table = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, k + 1):
        first = np.arange(size, dtype=np.int8)[:, None, None]
        grown = np.empty((size, len(table), size), dtype=np.int8)
        grown[:, :, :1] = first
        grown[:, :, 1:] = table + (table >= first)
        table = grown.reshape(-1, size)
    table.setflags(write=False)
    return table


def perm_blocks(n: int) -> Iterator[np.ndarray]:
    """Yield all n! permutations of range(n) in lexicographic int8 blocks."""
    k = min(n, _TABLE_N)
    table = _table(k)
    for prefix in permutations(range(n), n - k):
        rest = np.array(sorted(set(range(n)).difference(prefix)), dtype=np.int8)
        block = np.empty((len(table), n), dtype=np.int8)
        block[:, : n - k] = prefix
        block[:, n - k :] = rest[table]
        yield block
