"""Immutable simple undirected graphs and the structural primitives used
throughout the package: girth, subdivision, the degree-2 chain walk and
the strict ears built on it, and bounded enumeration of simple cycles.

Vertices are the integers 0..n-1.  Edges are stored as sorted pairs, and
adjacency is kept as per-vertex frozensets, so graphs are hashable and safe
to share between computations.

The graphs of interest are mostly subdivision vertices, so girth and cycle
enumeration work per degree-2 chain, not per vertex: `girth` runs one BFS
per vertex of degree >= 3 and per cycle component, O(n + m) each, and
`enumerate_cycles` walks each chain of the 2-core once and then searches
the branch vertices only, one step per chain, paying the length of a
cycle only when it reports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

INFINITE = math.inf


class CycleCapExceeded(RuntimeError):
    """A graph has more simple cycles than the requested cap."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]
    adj: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.adj), default=0)

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adj]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u] if 0 <= u < self.n else False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class StrictEar:
    """Path whose internal vertices all have degree 2 in the ambient graph
    and whose endpoints are distinct."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def build_graph(n: int, edge_list) -> Graph:
    """Build a normalized Graph; duplicate and reversed pairs collapse.

    Raises ValueError on self-loops or out-of-range vertex ids.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    edges = set()
    for u, v in edge_list:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) references a vertex id out of range 0..{n - 1}")
        edges.add(normalize_edge(u, v))
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n=n, edges=frozenset(edges), adj=tuple(frozenset(s) for s in nbrs))


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph induced on `vertices`, relabeled 0..k-1 in increasing
    original-id order."""
    keep = sorted(set(vertices))
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    return build_graph(len(keep), edges)


def from_edges(edge_list) -> Graph:
    """Graph on exactly the vertices incident to `edge_list`, relabeled."""
    verts = sorted({v for e in edge_list for v in e})
    index = {v: i for i, v in enumerate(verts)}
    return build_graph(len(verts), [(index[u], index[v]) for u, v in edge_list])


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(connected_components(g)) == 1


def girth(g: Graph):
    """Length of a shortest cycle, or INFINITE for forests.

    BFS from every vertex of degree >= 3 and from one vertex of each
    component that is a cycle: a cycle through no vertex of degree >= 3
    is a whole component.  For each non-tree edge (u,w) seen, the closed
    walk of length dist[u]+dist[w]+1 contains a cycle no longer than it,
    and for a root on a shortest cycle the walk is tight.  The cost is
    O(n + m) per root, so a subdivided graph pays per branch vertex, not
    per subdivision vertex.
    """
    deg = g.degrees()
    roots = [v for v in range(g.n) if deg[v] >= 3]
    roots += [comp[0] for comp in connected_components(g) if all(deg[v] == 2 for v in comp)]
    best = INFINITE
    for s in roots:
        dist = {s: 0}
        parent = {s: -1}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                du = dist[u]
                if du * 2 >= best:
                    continue
                for w in g.adj[u]:
                    if w not in dist:
                        dist[w] = du + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u] and parent[w] != u:
                        cand = du + dist[w] + 1
                        if cand < best:
                            best = cand
            frontier = nxt
    return best


def subdivide(g: Graph, k: int) -> Graph:
    """Replace every edge by a path with k internal vertices.

    New internal vertices are numbered n + e*k + j where e is the index of
    the edge in sorted order, so the construction is deterministic.
    """
    if k < 0:
        raise ValueError("subdivision count must be nonnegative")
    if k == 0:
        return g
    edges = []
    for e, (u, v) in enumerate(sorted(g.edges)):
        chain = [u] + [g.n + e * k + j for j in range(k)] + [v]
        edges.extend(zip(chain, chain[1:]))
    return build_graph(g.n + k * g.m, edges)


def walk_chain(adj, prev: int, cur: int) -> list[int]:
    """Vertices from cur on, moving away from prev through degree-2
    vertices: up to the first vertex of another degree, or back to prev
    when the walk closes a cycle.  adj maps each vertex to its neighbours
    (a Graph's adj tuple or a dict of sets)."""
    start = prev
    out = [cur]
    while cur != start and len(adj[cur]) == 2:
        x, y = adj[cur]
        prev, cur = cur, (y if x == prev else x)
        out.append(cur)
    return out


def strict_ears(g: Graph) -> list[StrictEar]:
    """All maximal strict ears whose endpoints have degree != 2.

    Each internal degree-2 vertex lies on at most one returned ear.  Pure
    degree-2 cycles and loops hanging at a single branch vertex contribute
    nothing here; fixed-length ear segments inside such cycles are the
    reduction engine's business.
    """
    ears = []
    seen = set()
    for u in range(g.n):
        if g.degree(u) == 2:
            continue
        for w in g.adj[u]:
            if g.degree(w) != 2:
                continue
            path = [u, *walk_chain(g.adj, u, w)]
            if path[-1] == u:
                continue
            key = tuple(path) if path[0] < path[-1] else tuple(reversed(path))
            if key not in seen:
                seen.add(key)
                ears.append(StrictEar(vertices=key))
    ears.sort(key=lambda e: e.vertices)
    return ears


def _canonical_cycle(c: list[int]) -> tuple[int, ...]:
    """Cycle c rotated to start at its smallest vertex, turned so that
    the smaller of that vertex's two neighbours comes second."""
    low = min(c)
    if low != c[0]:
        i = c.index(low)
        c = c[i:] + c[:i]
    if c[1] > c[-1]:
        c = [low, *reversed(c[1:])]
    return tuple(c)


def enumerate_cycles(g: Graph, cap: int) -> list[tuple[int, ...]]:
    """Every simple cycle of g as a vertex sequence, provided there are at
    most `cap` of them; otherwise raises CycleCapExceeded.

    Each cycle is reported once, starting at its smallest vertex with the
    smaller of its two neighbors on the cycle in second position.

    Every cycle lies in the 2-core, where it is a component with no
    vertex of degree >= 3, or a loop (a chain of degree-2 vertices from a
    branch vertex back to itself), or it crosses whole chains between
    distinct branch vertices.  The first two kinds are read off the chain
    walk.  The last kind is searched on the branch vertices alone, one
    step per chain: the cycles whose smallest branch vertex is s lie in
    the 2-core of the chain multigraph on the branch vertices >= s, which
    is shrunk by peeling s away after its search, so the walk and all
    those cores together cost O(n + m).  The depth-first search keeps a
    stack of iterators instead of recursing, so cycle length is not
    bounded by the interpreter's recursion limit.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    deg = g.degrees()
    # taken[v]: None while v is in the core and off the search path; the
    # chain the path entered v by while v is on it; True once v is gone
    taken: list = [None] * g.n

    def peel(stack: list[int], adj) -> None:
        while stack:
            v = stack.pop()
            if not taken[v]:
                taken[v] = True
                for w in adj[v]:
                    if not taken[w]:
                        deg[w] -= 1
                        if deg[w] < 2:
                            stack.append(w)

    peel([v for v in range(g.n) if deg[v] < 2], g.adj)
    nbrs = [sorted(w for w in g.adj[v] if not taken[w]) for v in range(g.n)]
    branch = [v for v in range(g.n) if deg[v] >= 3]
    # links[u]: (w, the chain's vertices from u to w) per chain from
    # branch vertex u to another branch vertex w
    links: list[list[tuple[int, list[int]]]] = [[] for _ in range(g.n)]
    # the largest smaller end of a chain with interior vertices: searches
    # from later start vertices meet only chains without interior vertices
    last_inner = -1
    cycles: list[tuple[int, ...]] = []
    for u in branch:
        for x in nbrs[u]:
            seg = [u, *walk_chain(nbrs, u, x)]
            for y in seg[1:-1]:
                taken[y] = True
            if seg[-1] != u:
                links[u].append((seg[-1], seg))
                if len(seg) > 2:
                    last_inner = max(last_inner, min(u, seg[-1]))
            elif x < seg[-2]:        # a loop, taken in one of its two directions
                cycles.append(_canonical_cycle(seg[:-1]))
        deg[u] = len(links[u])
    for v in range(g.n):             # the degree-2 vertices left form cycle components
        if not taken[v] and len(nbrs[v]) == 2:
            c = [v, *walk_chain(nbrs, v, nbrs[v][0])]
            for y in c:
                taken[y] = True
            cycles.append(_canonical_cycle(c[:-1]))
    if len(cycles) > cap:
        raise CycleCapExceeded(f"more than {cap} simple cycles")
    ends = [[w for w, _ in out] for out in links]
    peel([u for u in branch if deg[u] < 2], ends)
    for s in branch:
        if taken[s]:
            continue
        flat = s > last_inner
        path = [s]
        iters = [iter(links[s])]
        while iters:
            for w, seg in iters[-1]:
                if w == s:
                    if taken[path[1]][1] < seg[-2]:     # one of the cycle's two directions
                        if flat:             # s is the smallest vertex, so path is canonical
                            cycles.append(tuple(path))
                        else:
                            c = []
                            for v in path[1:]:
                                c += taken[v]
                                c.pop()
                            c += seg
                            c.pop()
                            cycles.append(_canonical_cycle(c))
                        if len(cycles) > cap:
                            raise CycleCapExceeded(f"more than {cap} simple cycles")
                elif not taken[w]:
                    path.append(w)
                    taken[w] = seg
                    iters.append(iter(links[w]))
                    break
            else:
                iters.pop()
                taken[path.pop()] = None
        peel([s], ends)
    cycles.sort()
    return cycles


def count_cycles_via_cycle_space(g: Graph) -> int:
    """Independent cycle counter: XOR all combinations of a fundamental
    cycle basis and count the connected 2-regular edge sets.  Only usable
    when the cycle space dimension m - n + c is small."""
    comps = connected_components(g)
    dim = g.m - g.n + len(comps)
    if dim > 20:
        raise ValueError(f"cycle space dimension {dim} too large")
    if dim == 0:
        return 0
    # fundamental cycles from a spanning forest
    parent: dict[int, tuple[int, int] | None] = {}
    depth: dict[int, int] = {}
    tree_edges = set()
    for comp in comps:
        root = comp[0]
        parent[root] = None
        depth[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in sorted(g.adj[u]):
                if w not in parent:
                    parent[w] = (u, len(tree_edges))
                    depth[w] = depth[u] + 1
                    tree_edges.add(normalize_edge(u, w))
                    stack.append(w)
    edge_index = {e: i for i, e in enumerate(sorted(g.edges))}
    basis = []
    for e in sorted(g.edges):
        if e in tree_edges:
            continue
        u, v = e
        mask = 1 << edge_index[e]
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            pu = parent[u]
            assert pu is not None
            mask ^= 1 << edge_index[normalize_edge(u, pu[0])]
            u = pu[0]
        basis.append(mask)
    index_edge = {i: e for e, i in edge_index.items()}
    count = 0
    for combo in range(1, 1 << len(basis)):
        mask = 0
        c = combo
        i = 0
        while c:
            if c & 1:
                mask ^= basis[i]
            c >>= 1
            i += 1
        if mask == 0:
            continue
        deg: dict[int, int] = {}
        bit = mask
        i = 0
        ok = True
        verts = set()
        while bit:
            if bit & 1:
                u, v = index_edge[i]
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
                verts.add(u)
                verts.add(v)
            bit >>= 1
            i += 1
        ok = all(d == 2 for d in deg.values())
        if ok:
            # connectivity of the edge set
            start = next(iter(verts))
            seen = {start}
            stack = [start]
            sel = set()
            bit = mask
            i = 0
            while bit:
                if bit & 1:
                    sel.add(index_edge[i])
                bit >>= 1
                i += 1
            incident: dict[int, list[int]] = {}
            for u, v in sel:
                incident.setdefault(u, []).append(v)
                incident.setdefault(v, []).append(u)
            while stack:
                u = stack.pop()
                for w in incident[u]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            ok = seen == verts
        if ok:
            count += 1
    return count


def enumerate_cycles_bruteforce(g: Graph) -> list[tuple[int, ...]]:
    """Oracle: find cycles by checking every permutation of every vertex
    subset.  Exponential; only for cross-checking on tiny graphs."""
    cycles = []
    verts = list(range(g.n))

    def subsets(items, k_min):
        n = len(items)
        for mask in range(1 << n):
            sub = [items[i] for i in range(n) if mask >> i & 1]
            if len(sub) >= k_min:
                yield sub

    for sub in subsets(verts, 3):
        first = sub[0]
        rest = sub[1:]
        for perm in permutations(rest):
            if perm[0] > perm[-1]:
                continue
            seq = (first,) + perm
            ok = True
            for a, b in zip(seq, seq[1:]):
                if b not in g.adj[a]:
                    ok = False
                    break
            if ok and seq[0] in g.adj[seq[-1]]:
                cycles.append(seq)
    cycles.sort()
    return cycles


def suppressed_multigraph(g: Graph):
    """Smooth every degree-2 vertex away.

    Returns (branch_vertices, links) where links are (u, v, length) chains
    between branch vertices (u == v marks a loop), plus one ("cycle",
    length) entry per pure degree-2 cycle component.
    """
    branch = [v for v in range(g.n) if g.degree(v) != 2]
    links = []
    used = set()
    for u in branch:
        for w in sorted(g.adj[u]):
            if (u, w) in used:
                continue
            path = [u, *walk_chain(g.adj, u, w)]
            used.add((path[-1], path[-2]))
            links.append((u, path[-1], len(path) - 1))
    for comp in connected_components(g):
        if comp and all(g.degree(v) == 2 for v in comp):
            links.append(("cycle", "cycle", len(comp)))
    return branch, links
