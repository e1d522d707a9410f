"""A fixed pure-Python reference loop that tracks how fast the host runs.

The benchmark shares a few cores of a host whose speed swings by up to 1.7x
within seconds (other tenants).  Timing this loop before, during and after
every op tells how fast the interpreter ran while the op ran, and the
benchmark reports op times scaled to a host on which the loop takes
``NOMINAL_S`` seconds.  The loop does the kind of work chromaroute does
(dict, set and list traffic, sorting with key functions, small-int
arithmetic) and never touches chromaroute, so a change to the program does
not move it.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds the loop takes on the scale the benchmark reports in: about its
# median on a 2-vCPU cloud VM with CPython 3.  Only the ratio to it matters.
NOMINAL_S = 0.015

# Seconds between reference timings during an op: one op of several seconds
# gets many, one of 100 ms gets those before and after it.
INTERVAL_S = 0.2

# A 40x40 grid: its dicts and sets outgrow the first cache levels, as the
# program's do on 6x6-8x8 devices, so cache contention slows both alike.
_SIDE = 40
_SOURCES = range(0, _SIDE * _SIDE, 400)


def _grid_adjacency(side: int) -> dict[int, list[int]]:
    adj = {}
    for q in range(side * side):
        r, c = divmod(q, side)
        adj[q] = [
            p
            for p, ok in ((q - side, r > 0), (q + side, r + 1 < side), (q - 1, c > 0), (q + 1, c + 1 < side))
            if ok
        ]
    return adj


def reference_work() -> int:
    """BFS distances and a greedy coloring on a 40x40 grid from 4 sources;
    returns a checksum so the work cannot be skipped."""
    adj = _grid_adjacency(_SIDE)
    n = len(adj)
    total = 0
    for src in _SOURCES:
        dist = {src: 0}
        queue = [src]
        for u in queue:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(dist.values())
        colors: dict[int, int] = {}
        for u in sorted(adj, key=lambda x: (-len(adj[x]), (x * 7919 + src) % n)):
            used = {colors[v] for v in adj[u] if v in colors}
            color = 0
            while color in used:
                color += 1
            colors[u] = color
        total += len(set(colors.values()))
    return total


def reference_seconds() -> float:
    """Seconds one run of ``reference_work`` takes now."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scale(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` measured between two reference timings, scaled to a host
    on which the reference loop takes ``NOMINAL_S``."""
    return seconds * NOMINAL_S * 2.0 / (ref_before + ref_after)


class OpClock:
    """Times one op after another, with the reference loop around and
    inside each.

    ``with clock:`` times the loop when the block is left (the previous
    block's closing timing serves as this one's opening one) and, from a
    ``SIGALRM`` handler, every ``INTERVAL_S`` while the block runs; the
    handler's own time is left out of the op's.  Ops run in the main thread,
    so the handler runs between the op's bytecodes.  After the block,
    ``seconds`` is the op's time as measured and ``scaled`` the same scaled
    by the mean of the loop timings.
    """

    def __init__(self):
        self.refs = [reference_seconds()]
        self.seconds = self.scaled = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.refs.append(reference_seconds())
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "OpClock":
        self.refs = self.refs[-1:]
        self.paused = 0.0
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.seconds = time.perf_counter() - self.start - self.paused
        signal.signal(signal.SIGALRM, self.previous)
        self.refs.append(reference_seconds())
        self.scaled = self.seconds * NOMINAL_S / statistics.fmean(self.refs)
