"""Quadrature rules for real- and complex-valued array integrands.

Two rules with distinct jobs:

* Adaptive Simpson, for integrands with kinks (the modulus |phi - gauss|/t,
  the clips inside gamma) and for the kernel moments.  The classic scheme
  with Richardson extrapolation: an interval is accepted once the two-panel
  refinement and the single-panel estimate agree to within 15x the local
  absolute tolerance; otherwise it is split in two and each half gets half
  the tolerance.  A call returns only converged values: it raises
  ``ConvergenceError`` when an interval still fails the test at depth
  ``_MAX_DEPTH``, or when its splits exceed ``_MAX_SUBDIVISIONS`` per lane,
  summed over the call.  ``adaptive_simpson_lanes`` is the kernel: it
  integrates many integrals ("lanes") breadth-first, queued
  ``_QUEUE_INTERVALS`` lanes at a time, every lane entering its queue as its
  whole interval, and refines one level of the lanes at the front of the
  queue per array call ``f(points, lanes)``;
  ``adaptive_simpson_vec`` is its batch of one.
* Gauss-Legendre, for entire integrands (sums of exponentials times
  polynomials: the permanent identity's, the kernel moments' s-factor), on
  which it converges geometrically.  ``gauss_legendre`` tries a fixed ladder
  of orders and raises ``ConvergenceError`` rather than return an unconverged value.

Integrands are assumed finite on the closed interval.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConvergenceError, ParameterError

# Deepest split of an interval.
_MAX_DEPTH = 60
# Splits a call may make per lane, summed over its lanes.
_MAX_SUBDIVISIONS = 1 << 16
# Lanes per queue of the lane kernel, and most intervals one step refines
# after a queue's first, which refines each of its lanes once: a step takes
# the whole lanes at the front of the queue that fit (a lane that alone holds
# more is refined on its own).  This bounds every step's temporaries however
# many lanes a call carries.  A queue grows by one interval per split, so it
# never holds more than lanes x (1 + _MAX_SUBDIVISIONS) intervals.
_QUEUE_INTERVALS = 1 << 12
# Gauss-Legendre orders tried in turn; order k is exact up to degree 2k - 1.
_GL_ORDERS = (8, 16, 32, 64)


def adaptive_simpson_vec(
    f: "Callable[[np.ndarray], np.ndarray]",
    a: float,
    b: float,
    tol: float = 1e-10,
) -> complex:
    """Integrate an array-valued integrand ``f`` over ``[a, b]``.

    A batch of one for ``adaptive_simpson_lanes``: every refinement level
    issues a single vectorised call ``f(points)``.  Intended for integrands
    whose evaluation cost is dominated by numpy dispatch overhead.  Returns a
    float, or a complex for a complex-valued integrand; raises
    ``ConvergenceError`` when the integral does not converge.
    """
    (total,) = adaptive_simpson_lanes(lambda x, _: f(x), a, b, tol)
    return complex(total) if np.iscomplexobj(total) else float(total)


@lru_cache(maxsize=len(_GL_ORDERS))
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights of one order, built once."""
    rule = np.polynomial.legendre.leggauss(order)
    for array in rule:
        array.setflags(write=False)
    return rule


def gauss_legendre(
    f: "Callable[[np.ndarray], np.ndarray]",
    a: float,
    b: float,
    tol: float = 1e-10,
) -> complex:
    """Integrate an array-valued integrand ``f`` over ``[a, b]`` by Gauss-Legendre.

    ``f(points)`` is evaluated at the nodes of orders 8, 16, 32 and 64 in
    turn; the higher-order value is returned once two successive orders differ
    by at most ``tol`` (absolute).  Meant for smooth, in practice entire,
    integrands: a kink or a singularity keeps the orders apart.  Raises
    ``ConvergenceError`` when no two successive orders agree.  Returns a
    float, or a complex for a complex-valued integrand; 0 for ``a == b`` and
    the negated integral for reversed bounds.
    """
    if not tol > 0:
        raise ParameterError(f"quadrature tolerance must be positive, got {tol}")
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    previous = gap = None
    for order in _GL_ORDERS:
        nodes, weights = _gl_rule(order)
        value = half * (weights @ np.asarray(f(mid + half * nodes)))
        if previous is not None:
            gap = abs(value - previous)
            if gap <= tol:
                return complex(value) if np.iscomplexobj(value) else float(value)
        previous = value
    raise ConvergenceError(
        f"Gauss-Legendre orders {_GL_ORDERS[-2]} and {_GL_ORDERS[-1]} differ by {gap:.3g}, "
        f"above the tolerance {tol:.3g}"
    )


def _halves(rows: tuple, k: np.ndarray) -> np.ndarray:
    """Queue rows of the halves of intervals ``k``, all left halves first.

    ``rows`` gives, for each queue row in turn, its value for the left half
    and for the right half of every interval.
    """
    pairs = np.concatenate(rows).reshape(len(rows) // 2, 2, -1)
    return pairs.take(k, axis=2).reshape(len(pairs), -1)


def adaptive_simpson_lanes(
    f: "Callable[[np.ndarray, np.ndarray], np.ndarray]",
    a: "np.ndarray | float",
    b: "np.ndarray | float",
    tol: "np.ndarray | float" = 1e-10,
) -> np.ndarray:
    """Integrate lane i over ``[a[i], b[i]]`` to absolute tolerance ``tol[i]``.

    ``a``, ``b`` and ``tol`` broadcast to one lane count; ``f(points, lanes)``
    returns the integrand at ``points``, where ``lanes[k]`` is the lane of
    ``points[k]``.  The lanes are queued ``_QUEUE_INTERVALS`` at a time, each
    as its whole interval.  The first step of a queue refines all its lanes,
    with one call of ``f`` that also evaluates each lane's ends and middle;
    each later step refines one level of the whole lanes at the front of the
    queue, at most ``_QUEUE_INTERVALS`` intervals unless one lane alone holds
    more.  Returns the array of lane integrals: 0 where ``a == b`` (``f`` is
    never called for such a lane) and the negated integral for reversed
    bounds.  Every value is converged: the call raises
    ``ConvergenceError`` instead when an interval fails its test at depth
    ``_MAX_DEPTH``, or when the call's splits exceed ``_MAX_SUBDIVISIONS``
    times the number of lanes.

    When ``f`` evaluates each point independently of the others, a lane's
    result depends only on its own integrand and arguments, bit for bit: not
    on the other lanes, nor on how the queue is split into steps.
    """
    a, b, tol = (np.array(x, dtype=float).ravel() for x in np.broadcast_arrays(a, b, tol))
    bad = ~(tol > 0)
    if bad.any():
        raise ParameterError(f"quadrature tolerance must be positive, got {tol[bad][0]}")
    total = np.zeros(a.size)
    splits, budget = 0, _MAX_SUBDIVISIONS * a.size
    for first in range(0, a.size, _QUEUE_INTERVALS):
        # The queue: one column per live interval of the lanes from ``first``
        # on, at most ``_QUEUE_INTERVALS`` of them, grouped by lane in lane
        # order, at first each lane's whole interval.  X holds lo, hi, 15 x
        # tol and depth; F holds f(lo), f(mid), f(hi) and the one-panel
        # Simpson estimate, and is None until the first step evaluates them.
        chunk = slice(first, first + _QUEUE_INTERVALS)
        lanes = first + np.flatnonzero(a[chunk] != b[chunk])
        X = np.array((np.minimum(a, b)[lanes], np.maximum(a, b)[lanes], 15.0 * tol[lanes], np.zeros(lanes.size)))
        F = None
        while lanes.size:
            size = lanes.size
            n, ln, front, fvals = size, lanes, X, F
            if F is not None and size > _QUEUE_INTERVALS:  # only the whole lanes at the front that fit, at least one
                ends = (lanes[1:] != lanes[:-1]).nonzero()[0] + 1
                n = ends[max(ends.searchsorted(_QUEUE_INTERVALS, side="right"), 1) - 1] if ends.size else n
                ln, front, fvals = lanes[:n], X[:, :n], F[:, :n]
            lo, hi, cut, dp = front
            m = ln.size
            mid = 0.5 * (lo + hi)
            # The first step's call also evaluates every lane's ends and middle.
            points = (0.5 * (lo + mid), 0.5 * (mid + hi)) + ((lo, mid, hi) if fvals is None else ())
            fnew = np.asarray(f(np.concatenate(points), np.concatenate((ln,) * len(points))))
            flm, frm = fnew[:m], fnew[m : 2 * m]
            if fvals is None:
                flo, fmid, fhi = fnew[2 * m :].reshape(3, -1)
                whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
                total = total.astype(np.result_type(total, fnew), copy=False)
            else:
                flo, fmid, fhi, whole = fvals
            left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
            right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
            refined = left + right
            defect = refined - whole
            split = ~(np.abs(defect) <= cut)
            stuck = split & (dp >= _MAX_DEPTH)
            if stuck.any():
                j = stuck.argmax()
                raise ConvergenceError(
                    f"adaptive Simpson: lane {ln[j]} fails at depth {_MAX_DEPTH} near x = {lo[j]:.6g}"
                )
            splits += np.count_nonzero(split)
            if splits > budget:
                raise ConvergenceError(f"adaptive Simpson: more than {budget} splits for {a.size} lane(s)")

            # Per-lane sums over the segments of the step's lanes.
            starts = np.concatenate(([0], (ln[1:] != ln[:-1]).nonzero()[0] + 1))
            estimate = refined + defect / 15.0
            estimate[split] = 0.0
            total[ln[starts]] += np.add.reduceat(estimate, starts)

            # The halves of the split intervals, left halves first, replace them.
            k = split.nonzero()[0]
            halves = ln.take(k)
            halves = np.concatenate((halves, halves))
            cut, dp = 0.5 * cut, dp + 1.0
            Xh = _halves((lo, mid, mid, hi, cut, cut, dp, dp), k)
            Fh = _halves((flo, fmid, flm, frm, fmid, fhi, left, right), k)
            if starts.size > 1:  # regroup by lane, keeping each lane's left halves first
                order = halves.argsort(kind="stable")
                halves, Xh, Fh = halves.take(order), Xh.take(order, axis=1), Fh.take(order, axis=1)
            if n < size:  # the lanes left for later follow
                halves = np.concatenate((halves, lanes[n:]))
                Xh = np.concatenate((Xh, X[:, n:]), axis=1)
                Fh = np.concatenate((Fh, F[:, n:]), axis=1)
            lanes, X, F = halves, Xh, Fh
    np.negative(total, out=total, where=a > b)
    return total
