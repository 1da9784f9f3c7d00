"""Reference solver for value-to-curve ordering, kept as a test oracle.

This is the general bipartite pipeline that ``albumarc.fitcurve`` used before
the 1-D solver: a binary search over the sorted unique pairwise distances,
testing each candidate threshold with a Hopcroft-Karp perfect-matching check;
a minimum-cost perfect matching (shortest augmenting paths with dual
potentials) restricted to edges at the bottleneck level; and a DFS that walks
the edges tight under those duals to the lexicographically smallest ordering.

Worst-case time is O(n^3) for the assignment step plus O(E * sqrt(n)) per
feasibility check.  The differential tests in ``test_fitcurve.py`` compare the
production solver against :func:`fit_ordering` here.

:func:`lex_smallest_assignment` is the 1-D solver's interval sweep as numpy
array code, before it became list code; the sweep is checked against it on
the same intervals.  :func:`rank_intervals` is the 1-D solver's interval
computation before it merged the values and targets in one sort: the flow
at the unique breakpoints, located by binary search.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from albumarc.core import EssenceSeries, Ordering
from albumarc.fitcurve import FitResult, sample_template

# Reduced costs at or below this are treated as tight when enumerating
# cost-optimal matchings; dual roundoff stays orders of magnitude below it.
_TIGHT_EPS = 1e-10


def candidate_thresholds(y, z) -> np.ndarray:
    """All pairwise distances |y_i - z_j|, deduplicated and sorted ascending."""
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if y.shape != z.shape or y.ndim != 1:
        raise ValueError(f"value/target length mismatch: {y.shape} vs {z.shape}")
    return np.unique(np.abs(y[:, None] - z[None, :]))


def _adjacency(mask: np.ndarray) -> list[list[int]]:
    """Row-to-column adjacency lists of a boolean edge matrix."""
    n = mask.shape[0]
    rows, cols = np.nonzero(mask)
    counts = np.bincount(rows, minlength=n)
    return [a.tolist() for a in np.split(cols, np.cumsum(counts)[:-1])]


def max_bipartite_matching(adj: list[list[int]], n_right: int) -> list[int]:
    """Hopcroft-Karp maximum matching.

    ``adj[i]`` lists the right vertices adjacent to left vertex i.  Returns
    ``match_left`` with the matched right vertex per left vertex (-1 if
    unmatched).
    """
    n_left = len(adj)
    inf = float("inf")
    match_l = [-1] * n_left
    match_r = [-1] * n_right

    for i in range(n_left):
        for j in adj[i]:
            if match_r[j] == -1:
                match_l[i] = j
                match_r[j] = i
                break

    dist = [0.0] * n_left
    while True:
        queue = deque()
        for i in range(n_left):
            if match_l[i] == -1:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = inf
        reachable_free = False
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                i2 = match_r[j]
                if i2 == -1:
                    reachable_free = True
                elif dist[i2] == inf:
                    dist[i2] = dist[i] + 1
                    queue.append(i2)
        if not reachable_free:
            return match_l

        for start in range(n_left):
            if match_l[start] != -1:
                continue
            # Iterative DFS along the BFS layering; exhausted vertices are
            # pruned by resetting their layer distance.
            stack = [(start, iter(adj[start]))]
            path: list[tuple[int, int]] = []
            while stack:
                i, it = stack[-1]
                for j in it:
                    i2 = match_r[j]
                    if i2 == -1:
                        path.append((i, j))
                        for pi, pj in path:
                            match_l[pi] = pj
                            match_r[pj] = pi
                        stack.clear()
                        break
                    if dist[i2] == dist[i] + 1:
                        path.append((i, j))
                        stack.append((i2, iter(adj[i2])))
                        break
                else:
                    dist[i] = inf
                    stack.pop()
                    if path:
                        path.pop()


def has_perfect_matching(y, z, threshold: float) -> bool:
    """Whether the graph with edges |y_i - z_j| <= threshold has a perfect
    matching."""
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if y.shape != z.shape or y.ndim != 1:
        raise ValueError(f"value/target length mismatch: {y.shape} vs {z.shape}")
    dist = np.abs(y[:, None] - z[None, :])
    return _feasible(dist, threshold)


def _feasible(dist: np.ndarray, threshold: float) -> bool:
    mask = dist <= threshold
    # Cheap necessary condition before running the matching.
    if not (mask.any(axis=1).all() and mask.any(axis=0).all()):
        return False
    match_l = max_bipartite_matching(_adjacency(mask), mask.shape[1])
    return all(j != -1 for j in match_l)


def min_cost_perfect_matching(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum-cost perfect matching on a square cost matrix.

    Forbidden edges carry ``np.inf``; a perfect matching over finite edges
    must exist.  Shortest-augmenting-path assignment with dual potentials,
    O(n^3).  Returns ``(row_of_col, u, v)`` where ``row_of_col[j]`` is the row
    matched to column j and ``u``, ``v`` are optimal dual potentials
    satisfying ``cost[i, j] - u[i] - v[j] >= 0`` with equality on edges usable
    by some optimal matching.
    """
    n = cost.shape[0]
    if cost.shape != (n, n):
        raise ValueError("cost matrix must be square")
    inf = np.inf
    a = np.full((n + 1, n + 1), inf)
    a[1:, 1:] = cost
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)  # p[j]: row matched to column j (1-based)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            cur = a[i0] - u[i0] - v
            free = ~used
            free[0] = False
            upd = free & (cur < minv)
            minv[upd] = cur[upd]
            way[upd] = j0
            masked = np.where(free, minv, inf)
            j1 = int(np.argmin(masked))
            delta = masked[j1]
            if not np.isfinite(delta):
                raise ValueError("no perfect matching over finite-cost edges")
            u[p[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    return p[1:] - 1, u[1:], v[1:]


def _lex_smallest_perfect_matching(
    col_adj: list[list[int]], row_of_col: list[int]
) -> list[int]:
    """Lexicographically smallest perfect matching reachable in a bipartite
    graph, given one perfect matching to start from.

    ``col_adj[j]`` lists candidate rows for column j in ascending order; the
    result minimizes ``(x[0], x[1], ...)`` where ``x[j]`` is the row assigned
    to column j.
    """
    n = len(col_adj)
    row_of_col = list(row_of_col)
    col_of_row = [-1] * n
    for j, i in enumerate(row_of_col):
        col_of_row[i] = j
    fixed_col = [False] * n
    fixed_row = [False] * n

    def try_rematch(free_col: int, target_row: int) -> bool:
        """Augment from free_col to target_row over non-fixed vertices."""
        visited = [False] * n
        stack = [(free_col, iter(col_adj[free_col]))]
        path: list[tuple[int, int]] = []
        while stack:
            j, it = stack[-1]
            for i in it:
                if fixed_row[i] or (visited[i] and i != target_row):
                    continue
                if i == target_row:
                    path.append((j, i))
                    for pj, pi in path:
                        row_of_col[pj] = pi
                        col_of_row[pi] = pj
                    return True
                visited[i] = True
                j2 = col_of_row[i]
                path.append((j, i))
                stack.append((j2, iter(col_adj[j2])))
                break
            else:
                stack.pop()
                if path:
                    path.pop()
        return False

    for j in range(n):
        current = row_of_col[j]
        for i in col_adj[j]:
            if fixed_row[i]:
                continue
            if i == current:
                break
            if i > current:
                break  # current assignment is already the smallest reachable
            # Take row i for column j and re-home the displaced column.
            j_disp = col_of_row[i]
            row_of_col[j] = i
            col_of_row[i] = j
            row_of_col[j_disp] = -1
            fixed_col[j] = True
            fixed_row[i] = True
            if try_rematch(j_disp, current):
                break
            # Revert.
            fixed_col[j] = False
            fixed_row[i] = False
            row_of_col[j] = current
            col_of_row[current] = j
            row_of_col[j_disp] = i
            col_of_row[i] = j_disp
        fixed_col[j] = True
        fixed_row[row_of_col[j]] = True
    return row_of_col


def rank_intervals(ys: np.ndarray, zs: np.ndarray, bottleneck: float):
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


def lex_smallest_assignment(order_y, order_z, lo, hi) -> np.ndarray:
    """Lexicographically smallest assignment ``x`` (value index per position)
    with each position ``j`` taking a value rank in its target's interval,
    by the same rule as ``albumarc.fitcurve._lex_smallest_assignment``.
    ``lo``/``hi`` are :func:`rank_intervals` per target rank."""
    n = order_y.size
    z_rank = np.empty(n, dtype=np.intp)
    z_rank[order_z] = np.arange(n)
    # The first m columns hold what remains: value ranks with their indices,
    # and target ranks with their intervals.  Removal shifts the tail left.
    remaining_values = np.stack([np.arange(n), order_y])
    remaining_targets = np.stack([np.arange(n), lo, hi])
    ranks, rows = remaining_values
    cols, lo_c, hi_c = remaining_targets
    x = np.empty(n, dtype=np.intp)
    for j in range(n):
        m = n - j
        k = z_rank[j]
        a = int(cols[:m].searchsorted(k))
        first = int(ranks[:m].searchsorted(lo[k], "left"))
        last = int(ranks[:m].searchsorted(hi[k], "right")) - 1
        blocked = (ranks[first + 1 : a + 1] > hi_c[first:a]).nonzero()[0]
        if blocked.size:
            first += int(blocked[-1]) + 1
        blocked = (lo_c[a + 1 : last + 1] > ranks[a:last]).nonzero()[0]
        if blocked.size:
            last = a + int(blocked[0])
        b = first + int(rows[first : last + 1].argmin())
        x[j] = rows[b]
        remaining_values[:, b : m - 1] = remaining_values[:, b + 1 : m]
        remaining_targets[:, a : m - 1] = remaining_targets[:, a + 1 : m]
    return x


def fit_ordering(values, curve: TemplateCurve) -> FitResult:
    """Find the deviation-optimal ordering of ``values`` against ``curve``.

    ``values`` is a min-max normalized scalar series (an
    :class:`~albumarc.core.EssenceSeries` or plain sequence of floats in
    [0, 1]).  The returned ordering minimizes the maximum |value - target|
    deviation, then the total deviation, then is lexicographically smallest.
    """
    if isinstance(values, EssenceSeries):
        if values.normalization != "minmax":
            raise ValueError(
                f"album {values.album_id!r}: series must be min-max normalized, "
                f"got {values.normalization!r}"
            )
        y = values.scalars()
    else:
        y = np.asarray(values, dtype=np.float64)
    n = y.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 values, got {n}")
    if y.min() < -1e-9 or y.max() > 1.0 + 1e-9:
        raise ValueError("values must lie in [0, 1]; min-max normalize first")

    z = sample_template(curve, n)
    dist = np.abs(y[:, None] - z[None, :])
    thresholds = np.unique(dist)

    # Bracket the bottleneck level before the binary search: every row and
    # column needs at least one edge (lower bound), and matching the sorted
    # values to the sorted targets is always feasible (upper bound).
    lower = max(dist.min(axis=1).max(), dist.min(axis=0).max())
    order_y = np.argsort(y, kind="stable")
    order_z = np.argsort(z, kind="stable")
    upper = np.abs(y[order_y] - z[order_z]).max()
    a = int(np.searchsorted(thresholds, lower, side="left"))
    b = int(np.searchsorted(thresholds, upper, side="left"))
    while a != b:
        p = a + (b - a) // 2
        if _feasible(dist, thresholds[p]):
            b = p
        else:
            a = p + 1
    bottleneck = float(thresholds[a])

    edge_mask = dist <= bottleneck
    cost = np.where(edge_mask, dist, np.inf)
    row_of_col, u, v = min_cost_perfect_matching(cost)

    # Restrict to edges usable by cost-optimal matchings and canonicalize.
    tight = edge_mask & (dist - u[:, None] - v[None, :] <= _TIGHT_EPS)
    col_adj = [list(np.nonzero(tight[:, j])[0]) for j in range(n)]
    x = _lex_smallest_perfect_matching(col_adj, list(row_of_col))

    per_position = np.abs(y[x] - z)
    return FitResult(
        ordering=Ordering(tuple(x)),
        bottleneck=bottleneck,
        total_deviation=float(per_position.sum()),
        per_position_deviation=per_position,
    )
