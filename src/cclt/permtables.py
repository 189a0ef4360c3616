"""The package's one permutation source.

Every exhaustive sum over the symmetric group iterates ``perm_rows(a)``,
except exact enumeration, which shares partial sums between permutations
and takes only the small tables of ``_table``.  For an n x n array ``a``,
``perm_rows`` walks the n! permutations of range(n) in the lexicographic
order of ``itertools.permutations``, block by block, and yields the rows
``a[np.arange(n), block]`` of each block as a fresh C-contiguous array.  A
caller that needs the column choices themselves passes the int8 matrix
whose row i is range(n).

A block fixes its first n - k entries (a prefix), k = min(n, 8), and maps
the one cached table of the k! permutations of range(k) onto the remaining
columns, so it has at most 8! rows and no caller holds the n! x n table.
The prefix columns are broadcast from ``a[head, prefix]``; the last k
columns are one gather from the k x k submatrix ``a[n-k:, rest]`` through
the cached flat index ``table + k*arange(k)``.
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


@lru_cache(maxsize=None)
def _flat_index(k: int) -> np.ndarray:
    """``_table(k)`` as read-only intp positions in a C-ordered k x k matrix."""
    flat = _table(k) + k * np.arange(k, dtype=np.intp)
    flat.setflags(write=False)
    return flat


def perm_rows(a: np.ndarray) -> Iterator[np.ndarray]:
    """Yield ``a[np.arange(n), block]`` for each block of permutations.

    ``a`` is a square array of any dtype; every yielded array is a fresh
    C-contiguous (rows, n) array of that dtype, equal bit for bit to the
    gather through the block.
    """
    a = np.asarray(a)
    n = len(a)
    k = min(n, _TABLE_N)
    flat = _flat_index(k)
    head = np.arange(n - k)
    for prefix in permutations(range(n), n - k):
        rest = sorted(set(range(n)).difference(prefix))
        out = np.empty((len(flat), n), dtype=a.dtype)
        out[:, : n - k] = a[head, prefix]
        out[:, n - k :] = a[n - k :, rest].ravel()[flat]
        yield out
