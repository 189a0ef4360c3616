"""The package's one permutation source.

``perm_blocks(n)`` yields the n! permutations of range(n) in the
lexicographic order of ``itertools.permutations``, as fresh int8 blocks of
at most 7! rows.  A block fixes its first n - k entries (a prefix), k =
min(n, 7), and maps the one cached table of the k! permutations of range(k)
onto the remaining columns, so no caller holds the n! x n table.  Each
caller gathers what it needs through the blocks, and the identity sums walk
them with no second chunking, so each of their temporaries holds at most 7!
rows; exact enumeration shares partial sums between permutations and takes
only the small tables of ``_table``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, permutations
from typing import Iterator

import numpy as np

_TABLE_N = 7
# Largest n whose n! permutations are walked: the identity checks refuse a
# larger n before any walk; ``enumerate_distribution`` takes it as its default.
ENUM_CAP = 10


@lru_cache(maxsize=None)
def _table(k: int) -> np.ndarray:
    """The k! permutations of range(k) in lexicographic order, read-only int8."""
    rows = math.factorial(k)
    flat = chain.from_iterable(permutations(range(k)))
    table = np.fromiter(flat, dtype=np.int8, count=rows * k).reshape(rows, k)
    table.setflags(write=False)
    return table


def perm_blocks(n: int) -> Iterator[np.ndarray]:
    """Yield the permutations of range(n) in order, as fresh (rows, n) int8 blocks."""
    k = min(n, _TABLE_N)
    table = _table(k)
    for prefix in permutations(range(n), n - k):
        rest = np.array(sorted(set(range(n)).difference(prefix)), dtype=np.int8)
        block = np.empty((len(table), n), dtype=np.int8)
        block[:, : n - k] = prefix
        block[:, n - k :] = rest[table]
        yield block
