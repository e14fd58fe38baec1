"""Weak reachability, weak coloring numbers, and the linear order built
from the greedy reduction certificate.

A vertex u is weakly x-reachable from v under an order when u <= v in the
order and some u-v path of length at most x keeps all its internal
vertices above u.  The order constructed by `weak_order` places each
deleted ear's midpoint before everything known so far and the ear's
interior after everything, which caps |WReach_x| by
`bounds.wcol_girth_rule(x, q)` for all x up to r whenever the ear length
is 2q with q >= r+1.

Weak reach reads radius 1 off each vertex's own adjacency, in id order,
so x = 0 costs O(n) and x = 1 costs O(n + m) with no search; a larger
radius adds one rank-restricted search per source, started from its
higher-ranked neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, permutations

from .bounds import wcol_girth_rule
from .graph import Graph
from .reduction import EAR, certificate_or_raise


@dataclass(frozen=True)
class LinearOrder:
    """Bijection vertex -> rank 0..n-1."""

    ranks: tuple[int, ...]

    @classmethod
    def from_sequence(cls, seq) -> "LinearOrder":
        seq = list(seq)
        n = len(seq)
        if sorted(seq) != list(range(n)):
            raise ValueError("order must list each vertex 0..n-1 exactly once")
        ranks = [0] * n
        for pos, v in enumerate(seq):
            ranks[v] = pos
        return cls(ranks=tuple(ranks))

    @property
    def sequence(self) -> tuple[int, ...]:
        out = [0] * len(self.ranks)
        for v, pos in enumerate(self.ranks):
            out[pos] = v
        return tuple(out)

    def __len__(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True)
class WcolBoundParams:
    """Radius r and half ear length q, q >= r+1; the reduction parameter
    is p = 2q."""

    r: int
    q: int

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.q < self.r + 1:
            raise ValueError("q must be at least r+1")

    @property
    def p(self) -> int:
        return 2 * self.q


def _weak_reach(g: Graph, pi: LinearOrder, x: int) -> list[dict[int, int]]:
    """reach[v] maps each u in WReach_x(v) to the length of a shortest
    u-v path whose internal vertices are all above u.  Radius 1 comes from
    one pass over the vertices in id order: v's row takes its neighbours
    below it at distance 1.  Past it, one rank-restricted BFS per source
    u, from its neighbours above it, covers all targets v above it; BFS
    levels do not depend on the order of visits, so the distances are
    those of a search from u itself."""
    ranks = pi.ranks
    adj = g.adj
    if x < 1:
        return [{v: 0} for v in range(g.n)]
    reach = []
    for v in range(g.n):
        rv = ranks[v]
        row = {v: 0}
        for a in adj[v]:
            if ranks[a] < rv:
                row[a] = 1
        reach.append(row)
    if x < 2:
        return reach
    for u in range(g.n):
        ru = ranks[u]
        frontier = []                    # a comprehension's frame per source costs more
        for b in adj[u]:
            if ranks[b] > ru:
                frontier.append(b)
        d = 1
        while frontier and d < x:
            d += 1
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if ranks[b] > ru and u not in reach[b]:
                        reach[b][u] = d
                        nxt.append(b)
            frontier = nxt
    return reach


def wreach_all(g: Graph, pi: LinearOrder, x: int) -> list[set[int]]:
    """WReach_x sets for every vertex."""
    if x < 0:
        raise ValueError("x must be >= 0")
    return [set(row) for row in _weak_reach(g, pi, x)]


def wreach_maxima(g: Graph, pi: LinearOrder, r: int) -> list[int]:
    """max |WReach_x| over all vertices for x = 0..min(r, n-1), as no
    weak-reach distance exceeds n-1 (0 on the empty graph): the rows of
    `_weak_reach`, then one sorted pass over each.  The one production
    count."""
    if r < 0:
        raise ValueError("r must be >= 0")
    best = [0] * (min(r, max(g.n - 1, 0)) + 1)
    for row in _weak_reach(g, pi, len(best) - 1):
        # after the last entry at distance d, size is the row's |WReach_d|
        size = 0
        for d in sorted(row.values()):
            size += 1
            if size > best[d]:
                best[d] = size
    return list(accumulate(best, max))


def wcol_under_order(g: Graph, pi: LinearOrder, r: int) -> int:
    return wreach_maxima(g, pi, r)[-1]


def wcol_exact(g: Graph, r: int) -> int:
    """Exact weak r-coloring number by brute force over all vertex orders;
    guarded against factorial blowup."""
    if g.n > 9:
        raise ValueError("brute force limited to 9 vertices")
    best = g.n + 1
    for seq in permutations(range(g.n)):
        best = min(best, wcol_under_order(g, LinearOrder.from_sequence(seq), r))
        if best == 1:
            break
    return best


def wreach_bound_ok(size: int, x: int, params: WcolBoundParams) -> bool:
    """Whether |WReach_x| = size is within its bound along the constructed
    order: 1 at x = 0, `bounds.wcol_girth_rule(x, q)` above."""
    return size <= (1 if x == 0 else wcol_girth_rule(x, params.q))


def weak_order(g: Graph, params: WcolBoundParams) -> LinearOrder:
    """Linear order certifying |WReach_x| <= wcol_girth_rule(x, q) for all
    1 <= x <= r.  Requires g to be 2q-path degenerate; it reads the
    greedy run at p = 2q as its exact-ear rewrite, each ear v0..vL cut to
    v0..v2q and followed by leaf steps on v2q, ..., v(L-1)."""
    cert = certificate_or_raise(g, params.p)
    q = params.q
    # Each ear's midpoint goes before everything placed so far, so the
    # midpoints come out in reverse; everything else goes after.
    midpoints: list[int] = []
    rest: list[int] = []
    for step in reversed(cert.steps):
        if step.kind == EAR:
            ear = step.vertices           # a_0 .. a_L, L >= 2q
            rest.extend(ear[-2:2 * q - 1:-1])   # the rewrite's leaves, last first
            midpoints.append(ear[q])
            rest.extend(ear[1:q])         # interiors from the first endpoint
            rest.extend(ear[2 * q - z] for z in range(1, q))  # from the second
        else:
            rest.extend(step.vertices)
    midpoints.reverse()
    return LinearOrder.from_sequence(midpoints + rest)
