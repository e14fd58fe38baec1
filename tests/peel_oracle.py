"""The greedy engine as it stood before `reduction._peel` kept its state in
lists indexed by vertex id: a dict-of-sets copy of the graph, one
`heappush` per chain, `_chain_best` for every chain, and a heap round trip
for every leaf.  `_peel`, `_next_ear`, `_chain_best` and `_window_key` are
kept as they were.  The tests hold production to the same steps and the
same survivors at scale, where `scan_oracle`'s whole-graph scan is too
slow; `_work_adj` also serves the tests that walk a certificate step by
step."""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from pathdeg.graph import Graph, chains_through
from pathdeg.reduction import EAR, ISOLATED, LEAF, ReductionStep, _holds_ear


def _work_adj(g: Graph) -> dict[int, set[int]]:
    return {v: set(g.adj[v]) for v in range(g.n)}


def _window_key(s: list[int], i: int, j: int) -> tuple[int, ...]:
    """Ear key of the path s[i..j]: (smaller endpoint, larger endpoint,
    interior read from the smaller endpoint)."""
    if s[i] < s[j]:
        return (s[i], s[j], *s[i + 1:j])
    return (s[j], s[i], *s[j - 1:i:-1])


def _chain_best(s: list[int], closed: bool, p: int) -> tuple[int, ...] | None:
    """Key of the smallest applicable ear on one maximal degree-2 chain.

    closed: s is a cycle component in cyclic order, and the candidates are
    its runs of len(s) consecutive vertices (the cycle minus one edge).
    Otherwise s runs from a branch vertex to a branch vertex (the same one
    for a loop), and the candidates are its sub-paths of length >= p with
    an end at s[0] or s[-1], except the closed walk of a loop.
    """
    if not _holds_ear(s, p):
        return None
    m = len(s) - 1
    if closed:   # drop the edge from the smallest vertex to its smaller neighbour
        i = s.index(min(s))
        s = s[i:] + s[:i]
        return _window_key(s if s[m] < s[1] else [s[0], *s[:0:-1]], 0, m)
    loop = s[0] == s[m]
    # With one end fixed, the smallest pair has the smallest other end.
    j = s.index(min(s[p:m if loop else m + 1]), p)
    lo = 1 if loop else 0
    i = s.index(min(s[lo:m - p + 1]), lo)
    first = (s[0], s[j]) if s[0] < s[j] else (s[j], s[0])
    last = (s[i], s[m]) if s[i] < s[m] else (s[m], s[i])
    if first != last:
        return _window_key(s, 0, j) if first < last else _window_key(s, i, m)
    return min(_window_key(s, 0, j), _window_key(s, i, m))


def _next_ear(adj: dict[int, set[int]], chains: list, dirty: set[int], p: int) -> tuple[int, ...] | None:
    """The smallest applicable ear, once no vertex has degree below 2.
    Pushes the chains through `dirty` and clears it, then pops `chains`
    until an entry is current: its vertex s[1], inside the chain, is still
    there and its ends still branch."""
    if dirty:
        for s, closed in chains_through(adj, dirty):
            key = _chain_best(s, closed, p)
            if key is not None:
                heappush(chains, (key, s[1], () if closed else (s[0], s[-1])))
        dirty.clear()
    while chains:
        key, v, ends = heappop(chains)
        if v in adj and (not ends or len(adj[ends[0]]) > 2 and len(adj[ends[1]]) > 2):
            return (key[0], *key[2:], key[1])
    return None


def _peel(adj: dict[int, set[int]], p: int):
    """Yield the greedy steps in order; resuming deletes the last yielded
    step from adj.  Ends when adj is p-irreducible."""
    if p < 2:
        raise ValueError("p must be >= 2")
    low = [(len(nb), v) for v, nb in adj.items() if len(nb) < 2]
    heapify(low)
    dirty = {v for v, nb in adj.items() if len(nb) == 2}
    chains: list = []
    while adj:
        while low and len(adj.get(low[0][1], ())) != low[0][0]:
            heappop(low)
        if low:
            degree, v = heappop(low)
            yield ReductionStep(LEAF if degree else ISOLATED, (v,))
            dirty.discard(v)
            ends = adj.pop(v)            # its one neighbour, if any
            for u in ends:
                adj[u].discard(v)
        else:
            ear = _next_ear(adj, chains, dirty, p)
            if ear is None:
                return
            yield ReductionStep(EAR, ear)
            for v in ear[1:-1]:
                del adj[v]
            adj[ear[0]].discard(ear[1])
            adj[ear[-1]].discard(ear[-2])
            ends = (ear[0], ear[-1])
        for u in ends:
            degree = len(adj[u])
            if degree < 2:
                heappush(low, (degree, u))
            elif degree == 2:
                dirty.add(u)


def peel_by_copy(g: Graph, p: int) -> tuple[tuple[ReductionStep, ...], tuple[int, ...]]:
    """The replaced engine's run on g: its steps and the sorted vertices
    it leaves."""
    adj = _work_adj(g)
    steps = tuple(_peel(adj, p))
    return steps, tuple(sorted(adj))
