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

The fit works on rows: a batch of B instances of one length n, as a (B x n)
array of values and one of targets, so that the numpy call overhead of the
sorts and intervals is paid once per batch; a single fit is the batch of one.

Cost: O(n log n) per row for the sorts and intervals, in a fixed number of
numpy calls along axis 1; the bottleneck caps are then two O(n) list scans
per row.  The sweep runs per row on Python lists: per position two binary
searches, two scans that stop at the first blocking target, a ``min`` over
the admissible slice and an O(n) ``del`` that shifts the remaining lists;
O(n^2) time in the worst case and O(n) memory.  At album lengths (n <= 20)
this costs a few microseconds per position, where numpy calls on tiny arrays
would cost more in call overhead than in work.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import Ordering, minmax_series, relative_positions
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
    """The curve's values at the n relative positions i/(n-1): the fit's
    targets, as the GA scores them.  They leave [0, 1] where the spline
    overshoots between knots."""
    return eval_curve(curve, relative_positions(n))


def _interval_rows(ys: np.ndarray, zs: np.ndarray, bottlenecks: np.ndarray):
    """For each row of sorted values ``ys`` and sorted targets ``zs`` (B x n)
    and its k-th smallest target, the ranks ``lo[k]..hi[k]`` of the values it
    may take in an assignment that is optimal in both the maximum and the
    total deviation.  Both bounds are nondecreasing in k; lists of lists.

    Each row's values and targets are merged by one stable sort, values
    before equal targets.  The entry that ends a run of equal merged values t
    is a breakpoint, where ``D(t) = #{y <= t} - #{z <= t}`` is twice the values
    up to it minus all entries up to it.
    """
    b, n = ys.shape
    rows = np.arange(b)[:, None]
    merged = np.concatenate((ys, zs), axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    is_value = order < n
    values_seen = np.cumsum(is_value, axis=1)
    points = merged[rows, order]
    ends = np.empty_like(is_value)
    np.not_equal(points[:, 1:], points[:, :-1], out=ends[:, :-1])
    ends[:, -1] = True
    flow = 2 * values_seen - np.arange(1, 2 * n + 1)
    # #{y <= t} at the last stop of upward flow (D <= 0) up to each entry,
    # and at the first stop of downward flow (D >= 0) from it on; counts
    # grow along the row, so a running max / min picks that stop.  D is 0
    # at the last breakpoint, so the latter always exists.
    up = np.maximum.accumulate(np.where(ends & (flow <= 0), values_seen, 0), axis=1)
    # ``down`` runs right to left, so entry p of the row is at 2n - 1 - p.
    down = np.minimum.accumulate(np.where(ends & (flow >= 0), values_seen, n)[:, ::-1], axis=1)
    # Merged position of each row's k-th target.  No breakpoint lies between
    # an entry and the first entry of its run, so the entry before a target
    # sees the stops strictly below the target's breakpoint.  A target at
    # entry 0 reads ``up`` there instead, which is 0 as no value precedes it.
    at = np.nonzero(~is_value)[1].reshape(b, n)
    lo = up[rows, np.maximum(at - 1, 0)].tolist()
    hi = (down[rows, 2 * n - 1 - at] - 1).tolist()

    # Cap at the bottleneck with the same float test |y - z| <= bottleneck
    # that defines it; both ends move monotonically with the target.
    for ys_row, zs_row, cap, lo_row, hi_row in zip(
        ys.tolist(), zs.tolist(), bottlenecks.tolist(), lo, hi
    ):
        r = 0
        for k, t in enumerate(zs_row):
            while t - ys_row[r] > cap:
                r += 1
            if lo_row[k] < r:
                lo_row[k] = r
        r = n - 1
        for k in range(n - 1, -1, -1):
            t = zs_row[k]
            while ys_row[r] - t > cap:
                r -= 1
            if hi_row[k] > r:
                hi_row[k] = r
    return lo, hi


def _lex_smallest_assignment(order_y, order_z, lo, hi) -> tuple[int, ...]:
    """Lexicographically smallest assignment ``x`` (value index per position)
    with each position ``j`` taking a value rank in its target's interval.

    ``order_y`` and ``order_z`` are the stable sorting permutations of the
    values and targets; ``lo``/``hi`` are :func:`_interval_rows` per target
    rank; all four are lists.  The remaining ranks and target ranks, both
    ascending, stay aligned (k-th with k-th) inside their intervals, which is
    exactly when the rest can still be matched.
    """
    n = len(order_y)
    z_rank = [0] * n
    for r, j in enumerate(order_z):
        z_rank[j] = r
    # What remains: value ranks with their indices, and target ranks with
    # their intervals.  Taking one deletes it, shifting the tail left.
    ranks, rows = list(range(n)), order_y[:]
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
    return tuple(x)


def fit_ordering(values, curve: TemplateCurve) -> FitResult:
    """Find the deviation-optimal ordering of ``values`` against ``curve``.

    ``values`` is a min-max normalized scalar series (an
    :class:`~albumarc.core.EssenceSeries` or plain sequence of finite floats
    in [0, 1]).  The returned ordering minimizes the maximum |value - target|
    deviation, then the total deviation, then is lexicographically smallest.
    """
    y = minmax_series(values)
    z = sample_template(curve, y.shape[0])
    orderings, bottlenecks, deviations = _fit_rows(y[None], z[None])
    return FitResult(
        ordering=Ordering(orderings[0]),
        bottleneck=float(bottlenecks[0]),
        total_deviation=float(deviations[0].sum()),
        per_position_deviation=deviations[0],
    )


def _fit_rows(y: np.ndarray, z: np.ndarray):
    """:func:`fit_ordering` of each row of checked values ``y`` (B x n) onto
    the same row of targets ``z``, which :func:`sample_template` gave for
    length n.  Returns the orderings (a tuple of value indices per row), the
    bottlenecks (B,) and the per-position deviations (B x n)."""
    rows = np.arange(y.shape[0])[:, None]
    order_y = np.argsort(y, axis=1, kind="stable")
    order_z = np.argsort(z, axis=1, kind="stable")
    ys, zs = y[rows, order_y], z[rows, order_z]
    bottlenecks = np.abs(ys - zs).max(axis=1)
    lo, hi = _interval_rows(ys, zs, bottlenecks)
    orderings = [
        _lex_smallest_assignment(*row)
        for row in zip(order_y.tolist(), order_z.tolist(), lo, hi)
    ]
    deviations = np.abs(y[rows, orderings] - z)
    return orderings, bottlenecks, deviations
