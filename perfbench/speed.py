"""Machine-speed probe for the end-to-end timings.

On a shared machine the speed of the CPU that runs the benchmark drifts by
tens of percent over minutes, and every timing of the run drifts with it.
The probe times a fixed piece of pure-Python work that uses no digrank
code, at regular moments between the timed calls.  Dividing a run's timings
by `factor()` (the probe's median time over its nominal time) states them
at the machine speed where the nominal time was taken, so runs made at
different moments compare.  A change to digrank cannot move the probe.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# Median time of one `reference_work()` between timed calls on the 2-vCPU
# x86-64 VM (Python 3.11) where the benchmark was written.  Only ratios of
# it matter.
NOMINAL_S = 0.0019
INTERVAL_S = 0.1

_rng = random.Random(5)
_ARCS = {
    (_rng.randrange(60), _rng.randrange(60)): Fraction(_rng.choice((1, -1, 2)), _rng.choice((1, 2)))
    for _ in range(240)
}
_MATRIX = [[(i * 7 + j * 13) % 11 - 5 + 3 * (i == j) for j in range(14)] for i in range(14)]


def _int_elimination() -> int:
    """Fraction-free elimination of a fixed 14 x 14 integer matrix."""
    a = [row[:] for row in _MATRIX]
    n = len(a)
    prev, r = 1, 0
    for c in range(n):
        p = next((i for i in range(r, n) if a[i][c]), -1)
        if p < 0:
            continue
        a[p], a[r] = a[r], a[p]
        piv = a[r][c]
        for i in range(r + 1, n):
            m = a[i][c]
            for j in range(c + 1, n):
                a[i][j] = (piv * a[i][j] - m * a[r][j]) // prev
            a[i][c] = 0
        prev, r = piv, r + 1
    return r


def _object_churn() -> int:
    """Induced sub-dicts, neighbour sets, a graph search and Fraction sums."""
    total = 0
    for k in range(6):
        keep = sorted(v for v in range(60) if (v * 7 + k) % 5)
        pos = {v: i for i, v in enumerate(keep)}
        arcs = {(pos[u], pos[v]): w for (u, v), w in _ARCS.items() if u in pos and v in pos}
        adj = [set() for _ in keep]
        for u, v in arcs:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        seen = [False] * len(keep)
        for s in range(len(keep)):
            if seen[s]:
                continue
            total += 1
            seen[s] = True
            stack = [s]
            while stack:
                for y in adj[stack.pop()]:
                    if not seen[y]:
                        seen[y] = True
                        stack.append(y)
        rows = [[Fraction(0)] * 8 for _ in range(8)]
        for (u, v), w in arcs.items():
            if u < 8 and v < 8:
                rows[u][v] = w
        total += sum(sum(row, Fraction(0)).numerator for row in rows)
    return total


def reference_work() -> int:
    return _int_elimination() + _object_churn()


class SpeedProbe:
    """Times `reference_work()` at most once per `INTERVAL_S` of wall time."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self) -> None:
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self._last = t1

    def tick(self) -> None:
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def factor(self) -> float:
        """How much slower than nominal the machine ran during the probes."""
        return statistics.median(self.samples) / NOMINAL_S
