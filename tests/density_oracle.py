"""Reference oracle for `pathdeg.density.max_subgraph_density`: Dinkelbach
iterations on Goldberg's network with one node per vertex.

Each round asks, for the current candidate density a/b, whether some
vertex set S has e(S) - (a/b)|S| > 0, answered by an integer min-cut:
source->v and v->sink arcs with a big-M capacity on every vertex, and two
directed arc pairs per edge.  It knows nothing of 2-cores, chains or
closed forms, so the tests hold the production code to it on graphs too
large for subset enumeration.
"""

from __future__ import annotations

from fractions import Fraction

from pathdeg.graph import Graph


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


def max_subgraph_density_per_vertex(g: Graph) -> Fraction:
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
