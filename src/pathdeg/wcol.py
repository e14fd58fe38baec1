"""Weak reachability, weak coloring numbers, and the linear order built
from an exact-ear reduction certificate.

A vertex u is weakly x-reachable from v under an order when u <= v in the
order and some u-v path of length at most x keeps all its internal
vertices above u.  The order constructed by `weak_order` places each
deleted ear's midpoint before everything known so far and the ear's
interior after everything, which caps |WReach_x| by
`bounds.wcol_girth_rule(x, q)` for all x up to r whenever the ear length
is 2q with q >= r+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

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


def wreach_all(g: Graph, pi: LinearOrder, x: int) -> list[set[int]]:
    """WReach_x sets for every vertex: one rank-restricted BFS per source
    u covers all targets v above it."""
    if x < 0:
        raise ValueError("x must be >= 0")
    ranks = pi.ranks
    reach: list[set[int]] = [{v} for v in range(g.n)]
    for u in range(g.n):
        ru = ranks[u]
        dist = {u: 0}
        frontier = [u]
        d = 0
        while frontier and d < x:
            d += 1
            nxt = []
            for a in frontier:
                for b in g.adj[a]:
                    if b not in dist and ranks[b] > ru:
                        dist[b] = d
                        nxt.append(b)
            frontier = nxt
        for v in dist:
            if v != u:
                reach[v].add(u)
    return reach


def wcol_under_order(g: Graph, pi: LinearOrder, r: int) -> int:
    if g.n == 0:
        return 0
    return max(len(s) for s in wreach_all(g, pi, r))


def wcol_exact(g: Graph, r: int, max_n: int = 9) -> int:
    """Exact weak r-coloring number by brute force over all vertex orders;
    guarded against factorial blowup."""
    if g.n > max_n:
        raise ValueError(f"brute force limited to {max_n} vertices")
    if g.n == 0:
        return 0
    best = g.n + 1
    for seq in permutations(range(g.n)):
        pi = LinearOrder.from_sequence(seq)
        val = wcol_under_order(g, pi, r)
        if val < best:
            best = val
            if best == 1:
                break
    return best


def wreach_bound_ok(size: int, x: int, params: WcolBoundParams) -> bool:
    """Whether |WReach_x| = size is within its bound along the constructed
    order: 1 at x = 0, `bounds.wcol_girth_rule(x, q)` above."""
    return size <= (1 if x == 0 else wcol_girth_rule(x, params.q))


def weak_order(g: Graph, params: WcolBoundParams) -> LinearOrder:
    """Linear order certifying |WReach_x| <= wcol_girth_rule(x, q) for all
    1 <= x <= r.  Requires g to be 2q-path degenerate; the certificate is
    computed internally with ears of length exactly 2q."""
    cert = certificate_or_raise(g, params.p, exact_ears=True)
    q = params.q
    # Each ear's midpoint goes before everything placed so far, so the
    # midpoints come out in reverse; everything else goes after.
    midpoints: list[int] = []
    rest: list[int] = []
    for step in reversed(cert.steps):
        if step.kind == EAR:
            ear = step.vertices           # length 2q: a_0 .. a_2q
            midpoints.append(ear[q])
            rest.extend(ear[1:q])         # interiors from the first endpoint
            rest.extend(ear[2 * q - z] for z in range(1, q))  # from the second
        else:
            rest.extend(step.vertices)
    midpoints.reverse()
    return LinearOrder.from_sequence(midpoints + rest)
