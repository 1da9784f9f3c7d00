"""A probe of the machine's speed, to put timings on a fixed scale.

On a CPU shared with other tenants, the speed a single-threaded Python
process gets drifts, within seconds, by half or more, and user time drifts
with wall time, so neither is steady from run to run.  While a
:class:`SpeedProbe` runs, ``SIGALRM`` fires every :data:`PERIOD_S` seconds of wall
time and its handler runs a fixed kernel twice, timing the second call.
``scaled(t0, t1)`` then gives the seconds the work between ``t0`` and
``t1`` would take at the reference speed, at which the kernel takes
:data:`REFERENCE_S`: each stretch between two samples is scaled by
``REFERENCE_S`` over the local median kernel time, and the samples' own
time is left out.

Only the main thread runs the handler, so a probe is used only in runs
whose work stays in the main thread.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# Kernel time at the reference speed: about its median on the 2-core Intel
# Xeon machine the baseline in README.md was measured on.
REFERENCE_S = 0.002
PERIOD_S = 0.15
# Samples on each side that the local median of kernel times takes in.
SMOOTH = 2
WARMUP = 3

_rng = np.random.default_rng(0)
_floats = _rng.random(12000)
_matrix = _rng.random((100, 100))
_rows = _rng.random((8, 201))


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def kernel() -> float:
    """A fixed mix of object, list and dict work, numpy sorting, matrix
    products and broadcasting, and a Python loop of small-vector numpy
    calls like the package's assignment and autodiff loops."""
    points = [_Point(i, i * 0.5) for i in range(300)]
    total = 0.0
    for p in points:
        total += p.x * p.y
    groups = {}
    for i, p in enumerate(points):
        groups.setdefault(i % 17, []).append(p.x)
    ranked = sorted(points, key=lambda p: -p.y)
    a = np.sort(_floats)
    b = _matrix @ _matrix
    gap = np.abs(_floats[:1000, None] - _floats[None, :200]).min()
    v = _rows[0].copy()
    best = np.full(201, np.inf)
    used = np.zeros(201, dtype=bool)
    for i in range(60):
        cur = _rows[i & 7] - v
        free = ~used
        better = free & (cur < best)
        best[better] = cur[better]
        used[int(np.argmin(np.where(free, best, np.inf)))] = True
        v[used] -= 0.001
    return total + a[0] + b[0, 0] + gap + v[0] + len(ranked) + len(groups)


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        # Time of the second of two kernel calls, which finds the caches as
        # the first one left them, and time of the whole sample.
        self.costs: list[float] = []
        self.spent: list[float] = []
        self._previous = None
        self._local: list[float] | None = None

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.costs.append(t2 - t1)
        self.spent.append(t2 - t0)

    def start(self) -> None:
        for _ in range(WARMUP):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self._local = [
            statistics.median(self.costs[max(0, i - SMOOTH): i + SMOOTH + 1]) for i in range(len(self.costs))
        ]

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the work between ``t0`` and ``t1`` (perf_counter times,
        inside start() and stop()) takes at the reference speed."""
        local = self._local
        # The last sample at or before t0; -1 when t0 precedes every sample.
        k = bisect.bisect_right(self.starts, t0) - 1
        total = 0.0
        t = t0
        while t < t1:
            end = min(self.starts[k + 1], t1) if k + 1 < len(self.starts) else t1
            own = end - t
            if k >= 0 and self.starts[k] >= t0:
                own -= self.spent[k]
            total += max(own, 0.0) * REFERENCE_S / local[max(k, 0)]
            t = end
            k += 1
        return total
