"""A fixed pure-Python reference workload that measures the host's speed.

The benchmark was written on a shared virtual machine whose speed moves
by a third within a minute: the same solve takes 0.55 s in one stretch
and 0.80 s in the next, in CPU time as much as in wall time, so other
tenants slow the core rather than take it away.  No statistic over the
attempts of a 25-second run removes a slow stretch that lasts the whole
run.  The same stretches slow a fixed dictionary-, heap- and tuple-heavy
Python loop alike (correlation 0.83 over 200 solves), so the benchmark
times that loop between blocks of measured work and scales each block by
REFERENCE_S over the mean of the two reference times around it.  A
scaled figure reads as seconds on a host on which one reference call
takes REFERENCE_S, about this machine in its fast stretches.

The reference uses none of the package's code, so no change to the
solver moves it, and it runs with the collector off, so the heap the
solver leaves behind does not change its cost either.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

REFERENCE_S = 0.06

_NODES = 3000
_SOURCES = 12


def _graph() -> list[list[tuple[int, int]]]:
    rng = random.Random("benchmark-reference")
    return [[(rng.randrange(_NODES), rng.randrange(1, 100))
             for _ in range(4)] for _ in range(_NODES)]


_GRAPH = _graph()


def reference() -> float:
    """Seconds of one reference call: Dijkstra from twelve sources over
    a fixed random graph of 3000 nodes and out-degree 4."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for source in range(_SOURCES):
            dist = {source: 0}
            heap = [(0, source)]
            done = set()
            while heap:
                d, v = heapq.heappop(heap)
                if v in done:
                    continue
                done.add(v)
                for w, cost in _GRAPH[v]:
                    nd = d + cost
                    if nd < dist.get(w, nd + 1):
                        dist[w] = nd
                        heapq.heappush(heap, (nd, w))
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class HostMeter:
    """Runs the reference between blocks of measured work and gives each
    block its scale factor."""

    def __init__(self):
        reference()  # the first call warms the specialising interpreter
        self.samples: list[float] = []
        self.restart()

    def restart(self) -> None:
        """Time the reference now, so that the next factor covers only
        the work that follows."""
        self.last = reference()
        self.samples.append(self.last)

    def scale(self) -> float:
        """Time the reference again and return the factor for the work
        done since the previous reference."""
        now = reference()
        self.samples.append(now)
        factor = 2 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor
