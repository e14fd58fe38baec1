"""Exact subgraph density, maximum average degree, and a brute-force
shallow-minor density for tiny graphs.

`max_subgraph_density` is exact: each Dinkelbach iteration asks, for the
current candidate density a/b, whether some vertex set S has
e(S) - (a/b)|S| > 0, answered by an integer min-cut (capacities scaled by
the denominator).  The candidate strictly improves until the true maximum
is reached, so the result is an exact Fraction.

`nabla_r_bruteforce` enumerates families of disjoint rooted blocks of
bounded radius, keeps the minor edges allowed by the root-distance rule,
collapses parallel edges, and maximizes edges/vertices.  It exists to
test inequalities at desk scale, not to certify anything large.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from .graph import Graph, build_graph


class StateCapExceeded(RuntimeError):
    """The shallow-minor search visited more states than allowed."""


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for i in self.head[u]:
                    v = self.to[i]
                    if self.cap[i] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if not pushed:
                    break
                flow += pushed

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> int:
        """Push flow along one s-t path of the level graph and return the
        amount, or 0 if there is none.  it[u] is the next edge to try at
        u; an edge is passed over only once the search behind it dead-ends.
        The path is a stack of edges, not recursion, so its length is not
        bounded by the interpreter's recursion limit."""
        head, to, cap = self.head, self.to, self.cap
        path: list[int] = []
        u = s
        while u != t:
            edges = head[u]
            while it[u] < len(edges):
                i = edges[it[u]]
                if cap[i] > 0 and level[to[i]] == level[u] + 1:
                    path.append(i)
                    u = to[i]
                    break
                it[u] += 1
            else:
                if not path:
                    return 0
                u = to[path.pop() ^ 1]
                it[u] += 1
        pushed = min(1 << 62, *(cap[i] for i in path))
        for i in path:
            cap[i] -= pushed
            cap[i ^ 1] += pushed
        return pushed

    def min_cut_source_side(self, s: int) -> set[int]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for i in self.head[u]:
                v = self.to[i]
                if self.cap[i] > 0 and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen


def _improving_subset(g: Graph, lam: Fraction) -> set[int] | None:
    """Vertex set S with e(S) > lam*|S| if one exists, else None.

    Network: source->v with 2bm, v->sink with 2bm + 4a - 2b*deg(v), both
    edge directions with 2b; a source-side cut {s} u S costs
    2b*(n*m - 2*(e(S) - lam*|S|)).
    """
    a, b = lam.numerator, lam.denominator
    n, m = g.n, g.m
    net = _Dinic(n + 2)
    s, t = n, n + 1
    for v in range(n):
        net.add(s, v, 2 * b * m)
        net.add(v, t, 2 * b * m + 4 * a - 2 * b * g.degree(v))
    for u, v in g.edges:
        net.add(u, v, 2 * b)
        net.add(v, u, 2 * b)
    flow = net.max_flow(s, t)
    if flow >= 2 * b * n * m:
        return None
    side = net.min_cut_source_side(s) - {s}
    return side if side else None


def _induced_edge_count(g: Graph, vs: set[int]) -> int:
    return sum(1 for u, v in g.edges if u in vs and v in vs)


def max_subgraph_density(g: Graph) -> Fraction:
    """Maximum of edges/vertices over nonempty subgraphs, exact."""
    if g.n == 0:
        raise ValueError("empty graph has no nonempty subgraph")
    if g.m == 0:
        return Fraction(0)
    lam = Fraction(g.m, g.n)
    while True:
        improved = _improving_subset(g, lam)
        if improved is None:
            return lam
        better = Fraction(_induced_edge_count(g, improved), len(improved))
        if better <= lam:
            return lam
        lam = better


def max_subgraph_density_bruteforce(g: Graph) -> Fraction:
    """Subset-enumeration oracle; exponential, tiny graphs only."""
    if g.n == 0:
        raise ValueError("empty graph has no nonempty subgraph")
    best = Fraction(0)
    for mask in range(1, 1 << g.n):
        vs = {v for v in range(g.n) if mask >> v & 1}
        d = Fraction(_induced_edge_count(g, vs), len(vs))
        if d > best:
            best = d
    return best


def mad(g: Graph) -> Fraction:
    """Maximum average degree: twice the max subgraph density, 0 for
    graphs without edges (including the empty graph)."""
    if g.n == 0 or g.m == 0:
        return Fraction(0)
    return 2 * max_subgraph_density(g)


def _distances_from(g: Graph, root: int, inside: tuple[int, ...]) -> dict[int, int]:
    allowed = set(inside)
    dist = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adj[u]:
                if w in allowed and w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def _block_root_distances(g: Graph, block: tuple[int, ...], radius: int):
    """Per admissible root, the in-block distance map (root eccentricity
    within the block at most `radius`)."""
    out = []
    for root in block:
        dist = _distances_from(g, root, block)
        if len(dist) == len(block) and max(dist.values()) <= radius:
            out.append((root, dist))
    return out


def _minor_families(g: Graph, r, cap: int):
    """Yield (blocks, root_distance_choices) for every family of disjoint
    blocks, each spannable by a rooted tree of radius <= ceil(r)."""
    two_r = Fraction(r) * 2
    if two_r.denominator != 1:
        raise ValueError("r must be a half-integer")
    radius = -(-two_r.numerator // 2)  # ceil(r)
    n = g.n
    # pairwise distance prune: vertices of one block sit within 2*radius
    dist = [dict() for _ in range(n)]
    for v in range(n):
        dist[v] = _distances_from(g, v, tuple(range(n)))
    states = 0

    def recurse(v: int, blocks: list[list[int]]):
        nonlocal states
        states += 1
        if states > cap:
            raise StateCapExceeded(f"more than {cap} partition states")
        if v == n:
            rooted = []
            for blk in blocks:
                choices = _block_root_distances(g, tuple(blk), radius)
                if not choices:
                    return
                rooted.append(choices)
            yield tuple(tuple(b) for b in blocks), rooted
            return
        yield from recurse(v + 1, blocks)              # v unused
        for blk in blocks:
            if all(dist[u].get(v, n + 1) <= 2 * radius for u in blk):
                blk.append(v)
                yield from recurse(v + 1, blocks)
                blk.pop()
        blocks.append([v])
        yield from recurse(v + 1, blocks)
        blocks.pop()

    yield from recurse(0, [])


def _minor_edges(g: Graph, blocks, roots_dists, length_bound: Fraction):
    """Minor edges among blocks: some g-edge (x,y) across blocks i,j with
    d_i(root_i, x) + 1 + d_j(y, root_j) <= 2r+1."""
    where = {}
    for i, blk in enumerate(blocks):
        for v in blk:
            where[v] = i
    edges = set()
    for x, y in g.edges:
        i, j = where.get(x), where.get(y)
        if i is None or j is None or i == j:
            continue
        di = roots_dists[i][1][x]
        dj = roots_dists[j][1][y]
        if di + 1 + dj <= length_bound:
            edges.add((min(i, j), max(i, j)))
    return edges


def _root_combinations(rooted, limit: int):
    count = prod(len(choices) for choices in rooted)
    if count > limit:
        raise StateCapExceeded(f"{count} root combinations exceed cap {limit}")
    return product(*rooted)


def nabla_r_bruteforce(g: Graph, r, cap: int = 300_000) -> Fraction:
    """Maximum density over shallow minors at depth r (r a half-integer);
    parallel edges arising from contraction are collapsed."""
    if g.n == 0:
        raise ValueError("empty graph")
    length_bound = Fraction(r) * 2 + 1
    best = Fraction(0)
    for blocks, rooted in _minor_families(g, r, cap):
        if not blocks:
            continue
        for combo in _root_combinations(rooted, cap):
            edges = _minor_edges(g, blocks, combo, length_bound)
            d = Fraction(len(edges), len(blocks))
            if d > best:
                best = d
    return best


def shallow_minors(g: Graph, r, cap: int = 300_000) -> list[Graph]:
    """All shallow minors of g at depth r, up to isomorphism, as simple
    graphs (every subset of allowed minor edges, then deduplicated)."""
    from .enumeration import canonical_key

    length_bound = Fraction(r) * 2 + 1
    seen = {}
    for blocks, rooted in _minor_families(g, r, cap):
        if not blocks:
            continue
        for combo in _root_combinations(rooted, cap):
            edges = sorted(_minor_edges(g, blocks, combo, length_bound))
            k = len(blocks)
            for mask in range(1 << len(edges)):
                sub = [edges[i] for i in range(len(edges)) if mask >> i & 1]
                h = build_graph(k, sub)
                key = canonical_key(h)
                if key not in seen:
                    seen[key] = h
    return list(seen.values())
