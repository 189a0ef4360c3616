"""Semantic exception hierarchy.

Every error deliberately raised by this package derives from ``CcltError``,
so callers (in particular the CLI) can distinguish domain failures from
programming bugs.  All concrete classes also derive from ``ValueError`` to
stay friendly to generic callers, and ``IndexRangeError`` from ``IndexError``.
"""

from __future__ import annotations

import operator

import numpy as np


class CcltError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrixError(CcltError, ValueError):
    """Score matrix fails structural validation (shape, size, finiteness)."""


class DegenerateMatrixError(CcltError, ValueError):
    """The permutation statistic has zero variance, so no bound applies."""


class CapExceededError(CcltError, ValueError):
    """A configured enumeration or permanent size cap was exceeded."""


class ParameterError(CcltError, ValueError):
    """A scalar parameter is outside its documented domain."""


class IndexRangeError(ParameterError, IndexError):
    """A 1-based row, column or element index lies outside 1..n.

    Also an ``IndexError``, as numpy's ``AxisError`` is, so callers that
    catch the builtin keep working.
    """


class ConvergenceError(CcltError, ValueError):
    """A numerical rule did not reach its tolerance within its fixed budget."""


class MatrixParseError(CcltError, ValueError):
    """A matrix file could not be parsed; carries row/column context."""

    def __init__(self, message: str, *, row: int | None = None, col: int | None = None):
        super().__init__(message)
        self.row = row
        self.col = col


def _integer(value, name: str) -> int:
    """``operator.index(value)``; a float, string or other non-integer raises ``ParameterError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


def _finite(values, name: str) -> np.ndarray:
    """``values`` as a 1-d float array; a non-numeric or non-finite entry raises ``ParameterError``."""
    try:
        values = np.atleast_1d(np.asarray(values, dtype=float))
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a real number, got {values!r}") from None
    if not np.isfinite(values).all():
        raise ParameterError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
    return values


def _thread_count(threads) -> int:
    """``threads`` as an int >= 1; anything else raises ``ParameterError``."""
    threads = _integer(threads, "threads")
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")
    return threads


def _seed(seed) -> int:
    """``seed`` as an int in [0, 2^64); anything else raises ``ParameterError``."""
    seed = _integer(seed, "seed")
    if not 0 <= seed < 1 << 64:
        raise ParameterError(f"seed must be in [0, 2^64), got {seed}")
    return seed
