"""Machine-speed reference, so that timings can be read in reference
seconds.

On a shared machine the speed of one core drifts by a third within
seconds (other tenants' load; nothing here can pin or isolate it).  A
fixed pure-Python reference task with the same kinds of work as pathdeg
(copying a dict of sets, BFS and vertex deletion as in reduction; a
recursive path search collecting tuples as in cycle enumeration) slows
down with it.  While a `Reference` is active, a SIGALRM timer runs the
task every INTERVAL_S, also in the middle of long operations, and
records how long it took.  An operation's time in reference seconds is its wall time
multiplied by NOMINAL_S over the median task time sampled during and
around it.  Time spent in the task is excluded from the clock the
benchmark reads (`now`), so operations are not charged for it.

A reference second equals a wall second whenever the task runs in
NOMINAL_S, its median inside runs on the machine the benchmark was tuned
on (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11, shared with other
workloads).  There, over ten ladder runs, the interquartile range of
wall_s was 25% of its median in wall seconds and 5% in reference
seconds.  Raw wall times are kept in the run record.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.0013
INTERVAL_S = 0.05
WINDOW_S = 0.25             # samples this close to an operation set its scale
_ORDER = 600
_PATH_LENGTH = 5


def _reference_graph() -> dict[int, frozenset[int]]:
    rng = random.Random(0)
    adj: dict[int, set[int]] = {v: set() for v in range(_ORDER)}
    for v in range(_ORDER):
        for _ in range(2):
            w = rng.randrange(_ORDER)
            if w != v:
                adj[v].add(w)
                adj[w].add(v)
    return {v: frozenset(nb) for v, nb in adj.items()}


class Reference:
    """Samples the reference task on a timer while active (use it as a
    context manager) and converts wall seconds to reference seconds."""

    def __init__(self) -> None:
        self._graph = _reference_graph()
        self.times: list[float] = []         # on the `now` clock
        self.durations: list[float] = []
        self._excluded = 0.0
        self._busy = False
        self._previous_handler = None

    def now(self) -> float:
        """perf_counter() minus the time spent in the reference task.  A
        sample that lands between the two reads shifts one of them, so
        the reads are repeated until none does."""
        while True:
            excluded = self._excluded
            t = perf_counter()
            if excluded == self._excluded:
                return t - excluded

    def _task(self) -> int:
        adj = {v: set(nb) for v, nb in self._graph.items()}
        seen, frontier = {0}, [0]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        for v in range(_ORDER // 2):
            for u in adj[v]:
                adj[u].discard(v)
            del adj[v]
        found: list[tuple[int, ...]] = []
        self._paths(_ORDER - 1, [_ORDER - 1], found)
        found.sort()
        return len(seen) + len(found)

    def _paths(self, u: int, path: list[int], found: list) -> None:
        """Every path of PATH_LENGTH edges from the start, never revisiting
        a vertex: recursion that builds a tuple per path."""
        if len(path) > _PATH_LENGTH:
            found.append(tuple(path))
            return
        for w in sorted(self._graph[u]):
            if w not in path:
                path.append(w)
                self._paths(w, path, found)
                path.pop()

    def sample(self, *_signal_args) -> None:
        if self._busy:                       # the timer fired during a sample
            return
        self._busy = True
        t0 = perf_counter()
        try:
            self._task()
            t1 = perf_counter()
            self.times.append(t0 - self._excluded)
            self.durations.append(t1 - t0)
        finally:
            # also when the task raised into the interrupted code (say a
            # RecursionError on a deep stack): its time stays excluded and
            # later samples still run
            self._excluded += perf_counter() - t0
            self._busy = False

    def __enter__(self) -> "Reference":
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median task time sampled within WINDOW_S of
        [start, end] on the `now` clock (the nearest sample if none is)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.durations[lo:hi] or [self.durations[min(lo, len(self.durations) - 1)]]
        return NOMINAL_S / statistics.median(near)

    def median_scale(self) -> float:
        return NOMINAL_S / statistics.median(self.durations)
