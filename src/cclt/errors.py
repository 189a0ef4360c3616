"""Semantic exception hierarchy.

Every error deliberately raised by this package derives from ``CcltError``,
so callers (in particular the CLI) can distinguish domain failures from
programming bugs.  All concrete classes also derive from ``ValueError`` to
stay friendly to generic callers, and ``IndexRangeError`` from ``IndexError``.
"""

from __future__ import annotations

import operator


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
