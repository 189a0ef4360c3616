"""Adaptive Simpson quadrature for real- and complex-valued integrands.

The rule is the classic Simpson scheme with Richardson extrapolation: an
interval is accepted once the two-panel refinement and the single-panel
estimate agree to within 15x the local absolute tolerance; otherwise it is
split in two and each half gets half the tolerance.  Each integral may make at
most ``max_subdivisions`` splits (default 2**16) and splits no interval deeper
than ``_MAX_DEPTH``; an interval that fails the test after that is accepted
with its extrapolated estimate, so the rule always terminates.  Integrands are
assumed finite on the closed interval.

The rule has two implementations:

* ``adaptive_simpson_lanes`` -- the vectorised kernel.  It integrates many
  integrals ("lanes") breadth-first, one refinement level of every lane it
  holds per array call ``f(points, lanes)``; ``adaptive_simpson_vec`` is its
  batch of one.
* ``adaptive_simpson`` -- a depth-first recursion for scalar callables that
  cannot be evaluated on arrays.

The two agree to within the tolerance, not bit for bit: they sum in different
orders, and when the subdivision budget binds they spend it on different
intervals (depth-first versus level by level).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ParameterError

# Hard recursion guard; the subdivision budget is the real limiter.
_MAX_DEPTH = 60
# Most intervals one step of the lane kernel refines: a step takes the whole
# lanes at the front of the queue that fit (a lane that alone holds more is
# refined on its own), and new lanes are admitted only while the queue holds
# fewer.  This bounds a step's temporaries however many lanes a call carries;
# the queue itself can grow larger (to about 21,000 intervals, 1.5 MB, for the
# kernel moments of ``analytic.damped_moment_integrals``).
_QUEUE_INTERVALS = 1 << 12
_ONE_LANE = np.zeros(1, dtype=int)


def adaptive_simpson(
    f: Callable[[float], complex],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_subdivisions: int = 1 << 16,
) -> complex:
    """Integrate ``f`` over ``[a, b]`` to absolute tolerance ``tol``.

    Works unchanged for complex-valued integrands; the acceptance test is on
    the modulus of the Richardson defect.  Returns 0 for ``a == b`` and the
    negated integral for reversed bounds.
    """
    if tol <= 0:
        raise ParameterError(f"quadrature tolerance must be positive, got {tol}")
    if a == b:
        return 0.0
    if a > b:
        return -adaptive_simpson(f, b, a, tol, max_subdivisions)

    budget = [max_subdivisions]

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol_local, depth):
        mid = 0.5 * (lo + hi)
        lmid = 0.5 * (lo + mid)
        rmid = 0.5 * (mid + hi)
        flm = f(lmid)
        frm = f(rmid)
        left = simpson(flo, flm, fmid, mid - lo)
        right = simpson(fmid, frm, fhi, hi - mid)
        refined = left + right
        defect = refined - whole
        if abs(defect) <= 15.0 * tol_local or depth >= _MAX_DEPTH or budget[0] <= 0:
            return refined + defect / 15.0
        budget[0] -= 1
        return recurse(lo, mid, flo, flm, fmid, left, 0.5 * tol_local, depth + 1) + recurse(
            mid, hi, fmid, frm, fhi, right, 0.5 * tol_local, depth + 1
        )

    fa = f(a)
    fb = f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    return recurse(a, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, 0)


def adaptive_simpson_vec(
    f: "Callable[[np.ndarray], np.ndarray]",
    a: float,
    b: float,
    tol: float = 1e-10,
    max_subdivisions: int = 1 << 16,
) -> complex:
    """Integrate an array-valued integrand ``f`` over ``[a, b]``.

    A batch of one for ``adaptive_simpson_lanes``: every refinement level
    issues a single vectorised call ``f(points)``.  Intended for integrands
    whose evaluation cost is dominated by numpy dispatch overhead.  Returns a
    float, or a complex for a complex-valued integrand.
    """
    (total,) = adaptive_simpson_lanes(lambda x, _: f(x), a, b, tol, max_subdivisions)
    return complex(total) if np.iscomplexobj(total) else float(total)


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
    max_subdivisions: int = 1 << 16,
) -> np.ndarray:
    """Integrate lane i over ``[a[i], b[i]]`` to absolute tolerance ``tol[i]``.

    ``a``, ``b`` and ``tol`` broadcast to one lane count; ``f(points, lanes)``
    returns the integrand at ``points``, where ``lanes[k]`` is the lane of
    ``points[k]``.  Each step refines one level of the lanes it holds, with
    one call of ``f`` that also evaluates the ends and the middle of the lanes
    admitted in that step.  Each lane has its own budget of
    ``max_subdivisions`` splits, spent on its failing intervals in queue order
    (after a level: the left halves, then the right halves); the failing
    intervals left over are accepted with their extrapolated estimates.
    Returns the array of lane integrals: 0 where ``a == b`` (``f`` is never
    called for such a lane) and the negated integral for reversed bounds.

    When ``f`` evaluates each point independently of the others, a lane's
    result depends only on its own integrand and arguments, bit for bit: not
    on the other lanes, nor on how the queue is split into steps.
    """
    a, b, tol = (np.array(x, dtype=float).ravel() for x in np.broadcast_arrays(a, b, tol))
    bad = ~(tol > 0)
    if bad.any():
        raise ParameterError(f"quadrature tolerance must be positive, got {tol[bad][0]}")
    lo0, hi0 = np.minimum(a, b), np.maximum(a, b)
    todo = np.flatnonzero(a != b)
    total = np.zeros(a.size)
    budget = np.full(a.size, max(max_subdivisions, 0))
    # The queue: one column per live interval, grouped by lane in lane order.
    # X holds lo, hi, 15 x tol and depth; F holds f(lo), f(mid), f(hi) and the
    # one-panel Simpson estimate.
    lanes, X, F = np.empty(0, dtype=int), np.empty((4, 0)), np.empty((4, 0))
    admitted = 0
    while True:
        size = lanes.size
        new = todo[admitted : admitted + max(_QUEUE_INTERVALS - size, 0)]
        admitted += new.size
        if size + new.size == 0:
            break
        n, ln, front, fvals = size, lanes, X, F
        if size > _QUEUE_INTERVALS:  # refine only the whole lanes at the front that fit, at least one
            ends = (lanes[1:] != lanes[:-1]).nonzero()[0] + 1
            n = ends[max(ends.searchsorted(_QUEUE_INTERVALS, side="right"), 1) - 1] if ends.size else n
            ln, front, fvals = lanes[:n], X[:, :n], F[:, :n]
        (lo, hi, cut, dp), (flo, fmid, fhi, whole) = front, fvals
        extra = ()
        if new.size:
            # A new lane enters as its whole interval; f at its ends and its
            # middle comes with this step's call.
            start, stop = lo0[new], hi0[new]
            ln = np.concatenate((ln, new))
            roots = np.array((start, stop, 15.0 * tol[new], np.zeros(new.size)))
            lo, hi, cut, dp = np.concatenate((front, roots), axis=1)
            extra = (start, 0.5 * (start + stop), stop)

        m = ln.size
        mid = 0.5 * (lo + hi)
        points = (0.5 * (lo + mid), 0.5 * (mid + hi)) + extra
        fnew = np.asarray(f(np.concatenate(points), np.concatenate((ln, ln) + (new,) * len(extra))))
        flm, frm = fnew[:m], fnew[m : 2 * m]
        if new.size:
            fresh = fnew[2 * m :].reshape(3, -1)
            flo, fmid, fhi = (np.concatenate(pair) for pair in zip((flo, fmid, fhi), fresh))
            whole = np.concatenate((whole, (stop - start) / 6.0 * (fresh[0] + 4.0 * fresh[1] + fresh[2])))
            total = total.astype(np.result_type(total, fnew), copy=False)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        refined = left + right
        defect = refined - whole
        split = ~(np.abs(defect) <= cut) & (dp < _MAX_DEPTH)

        # Per-lane sums over the segments of the step's lanes (a single lane
        # is one segment at 0).
        several = ln[0] != ln[-1]
        starts = np.concatenate(([0], (ln[1:] != ln[:-1]).nonzero()[0] + 1)) if several else _ONE_LANE
        seg = ln[starts]
        count = np.add.reduceat(split, starts, dtype=int)
        room = budget[seg]
        for j in (count > room).nonzero()[0]:
            # The budget binds: only the lane's first failing intervals split.
            count[j] = room[j]
            split[(split & (ln == seg[j])).nonzero()[0][count[j] :]] = False
        budget[seg] = room - count
        estimate = refined + defect / 15.0
        estimate[split] = 0.0
        total[seg] += np.add.reduceat(estimate, starts)

        # The halves of the split intervals, left halves first, replace them.
        k = split.nonzero()[0]
        halves = ln.take(k)
        halves = np.concatenate((halves, halves))
        cut, dp = 0.5 * cut, dp + 1.0
        Xh = _halves((lo, mid, mid, hi, cut, cut, dp, dp), k)
        Fh = _halves((flo, fmid, flm, frm, fmid, fhi, left, right), k)
        if several:  # regroup by lane, keeping each lane's left halves first
            order = halves.argsort(kind="stable")
            halves, Xh, Fh = halves.take(order), Xh.take(order, axis=1), Fh.take(order, axis=1)
        if n < size:  # the lanes left for later follow
            halves = np.concatenate((halves, lanes[n:]))
            Xh = np.concatenate((Xh, X[:, n:]), axis=1)
            Fh = np.concatenate((Fh, F[:, n:]), axis=1)
        lanes, X, F = halves, Xh, Fh
    np.negative(total, out=total, where=a > b)
    return total
