"""Optimal reordering of values onto a template curve.

Given n values in [0, 1] and a template curve sampled at n positions, find the
ordering that is minimal first in the maximum deviation from the curve, second
in the total deviation, and third lexicographically.

On a line, matching the i-th smallest value to the i-th smallest target (the
monotone rearrangement of 1-D optimal transport; Villani 2003, *Topics in
Optimal Transportation* §2.2) minimizes the maximum and the total deviation at
once.  So the bottleneck is that sorted matching's largest deviation, and only
the lexicographic tie-break needs a search.  With the net flow
``D(t) = #{y <= t} - #{z <= t}``, an assignment has minimal total deviation iff
each of its edges runs with the flow: an edge with y < z needs ``D >= 1`` on
[y, z), an edge with y > z needs ``D <= -1`` on [z, y).  Capped at the
bottleneck, the values each target may take form an interval of value ranks,
and these intervals are monotone in target order.  For monotone intervals the
remaining values and targets can still be matched iff the k-th remaining value
rank lies in the k-th remaining target's interval, so the sweep takes the
targets in position order and gives each the smallest value index whose
removal keeps that alignment valid.

Cost: O(n log n) for the sorts and intervals.  The sweep then runs on Python
lists: per position two binary searches, two scans that stop at the first
blocking target, a ``min`` over the admissible slice and an O(n) ``del`` that
shifts the remaining lists; O(n^2) time in the worst case and O(n) memory.
At album lengths (n <= 20) this costs a few microseconds per position, where
numpy calls on tiny arrays would cost more in call overhead than in work.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Ordering, minmax_series, normalize_minmax, relative_positions
from .spline import TemplateCurve, eval_curve


@dataclass(frozen=True)
class FitResult:
    """An ordering of values against a curve plus deviation diagnostics."""

    ordering: Ordering
    bottleneck: float
    total_deviation: float
    per_position_deviation: np.ndarray

    def __post_init__(self):
        dev = np.asarray(self.per_position_deviation, dtype=np.float64)
        dev.flags.writeable = False
        object.__setattr__(self, "per_position_deviation", dev)


def sample_template(curve: TemplateCurve, n: int) -> np.ndarray:
    """Sample the curve at n uniform relative positions.

    If any sampled value overshoots [0, 1] (cubic overshoot between knots),
    the samples are min-max renormalized back into range.
    """
    if n < 2:
        raise ValueError(f"need at least 2 sample points, got {n}")
    z = np.asarray(eval_curve(curve, relative_positions(n)), dtype=np.float64)
    if z.min() < 0.0 or z.max() > 1.0:
        z = normalize_minmax(z)
    return z


def _rank_intervals(ys: np.ndarray, zs: np.ndarray, bottleneck: float):
    """For the k-th smallest target, the ranks ``lo[k]..hi[k]`` of the sorted
    values ``ys`` it may take in an assignment that is optimal in both the
    maximum and the total deviation.  Both bounds are nondecreasing in k."""
    points = np.union1d(ys, zs)
    flow = np.searchsorted(ys, points, "right") - np.searchsorted(zs, points, "right")
    idx = np.arange(points.size)
    # Breakpoint index of the last stop of upward flow (D <= 0) strictly below
    # each breakpoint, and of the first stop of downward flow (D >= 0) at or
    # above it.  D is 0 at the last breakpoint, so the latter always exists.
    stop_up = np.maximum.accumulate(np.where(flow <= 0, idx, -1))
    stop_up_below = np.concatenate(([-1], stop_up[:-1]))
    stop_down = np.minimum.accumulate(np.where(flow >= 0, idx, points.size)[::-1])[::-1]
    at = np.searchsorted(points, zs)
    lo = np.searchsorted(ys, points[stop_up_below[at] + 1], "left")
    hi = np.searchsorted(ys, points[stop_down[at]], "right") - 1

    # Cap at the bottleneck with the same float test |y - z| <= bottleneck
    # that defines it; both ends move monotonically with the target.
    ys_list, zs_list = ys.tolist(), zs.tolist()
    low_cap, r = [], 0
    for t in zs_list:
        while t - ys_list[r] > bottleneck:
            r += 1
        low_cap.append(r)
    high_cap, r = [], len(ys_list) - 1
    for t in reversed(zs_list):
        while ys_list[r] - t > bottleneck:
            r -= 1
        high_cap.append(r)
    return np.maximum(lo, low_cap), np.minimum(hi, high_cap[::-1])


def _lex_smallest_assignment(order_y, order_z, lo, hi) -> list[int]:
    """Lexicographically smallest assignment ``x`` (value index per position)
    with each position ``j`` taking a value rank in its target's interval.

    ``order_y`` and ``order_z`` are the stable sorting permutations of the
    values and targets; ``lo``/``hi`` are :func:`_rank_intervals` per target
    rank.  The remaining ranks and target ranks, both ascending, stay aligned
    (k-th with k-th) inside their intervals, which is exactly when the rest
    can still be matched.
    """
    n = len(order_y)
    z_rank = [0] * n
    for r, j in enumerate(order_z.tolist()):
        z_rank[j] = r
    lo, hi = lo.tolist(), hi.tolist()
    # What remains: value ranks with their indices, and target ranks with
    # their intervals.  Taking one deletes it, shifting the tail left.
    ranks, rows = list(range(n)), order_y.tolist()
    cols, lo_c, hi_c = list(range(n)), lo[:], hi[:]
    x = []
    for k in z_rank:
        a = bisect_left(cols, k)
        first = bisect_left(ranks, lo[k])
        last = bisect_right(ranks, hi[k]) - 1
        # Taking ranks[b] for b < a realigns ranks[b+1..a] with the targets
        # one place to their left; each must stay within its new upper bound.
        for i in range(a - 1, first - 1, -1):
            if ranks[i + 1] > hi_c[i]:
                first = i + 1
                break
        # For b > a, targets a+1..b realign with the ranks one place to their
        # left; each lower bound must still admit its new rank.
        for i in range(a + 1, last + 1):
            if lo_c[i] > ranks[i - 1]:
                last = i - 1
                break
        row = min(rows[first : last + 1])
        b = rows.index(row, first)
        x.append(row)
        del ranks[b], rows[b], cols[a], lo_c[a], hi_c[a]
    return x


def fit_ordering(values, curve: TemplateCurve) -> FitResult:
    """Find the deviation-optimal ordering of ``values`` against ``curve``.

    ``values`` is a min-max normalized scalar series (an
    :class:`~albumarc.core.EssenceSeries` or plain sequence of finite floats
    in [0, 1]).  The returned ordering minimizes the maximum |value - target|
    deviation, then the total deviation, then is lexicographically smallest.
    """
    y = minmax_series(values)
    return _fit(y, sample_template(curve, y.shape[0]))


def _fit(y: np.ndarray, z: np.ndarray) -> FitResult:
    """:func:`fit_ordering` of checked values ``y`` onto targets ``z``, which
    :func:`sample_template` gave for ``y``'s length."""
    order_y = np.argsort(y, kind="stable")
    order_z = np.argsort(z, kind="stable")
    ys, zs = y[order_y], z[order_z]
    bottleneck = float(np.abs(ys - zs).max())
    lo, hi = _rank_intervals(ys, zs, bottleneck)
    x = _lex_smallest_assignment(order_y, order_z, lo, hi)

    per_position = np.abs(y[x] - z)
    return FitResult(
        ordering=Ordering(tuple(x)),
        bottleneck=bottleneck,
        total_deviation=float(per_position.sum()),
        per_position_deviation=per_position,
    )
