"""Immutable simple undirected graphs and the structural primitives used
throughout the package: girth, subdivision, the degree-2 chain walk,
the chain decomposition built on it (suppressed_multigraph, whose chains
also give the strict ears) and its inverse chain_graph, the 2-core peel,
the block decomposition, and bounded enumeration of simple cycles.

Vertices are the integers 0..n-1.  Edges are stored as sorted pairs, and
adjacency is kept as per-vertex frozensets, so graphs are hashable and safe
to share between computations.

The graphs of interest are mostly subdivision vertices, so `girth` runs
one BFS per vertex of degree >= 3 and per cycle component, not per
vertex.  `blocks` is one linear pass.  `enumerate_cycles` is exponential
in the worst case and serves the tests and the public API only.
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
    return chain_graph(g.n, [(u, v, k + 1) for u, v in sorted(g.edges)])


def chain_graph(n: int, links) -> Graph:
    """Vertices 0..n-1 joined by one path of length L per (u, v, L) link.
    The interior vertices are numbered n, n+1, ... in link order; the
    inverse of suppressed_multigraph."""
    edges = []
    nxt = n
    for u, v, length in links:
        chain = [u, *range(nxt, nxt + length - 1), v]
        nxt += length - 1
        edges.extend(zip(chain, chain[1:]))
    return build_graph(nxt, edges)


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


def peel(adj, deg: list[int], alive: list[bool], stack: list[int]) -> None:
    """Delete the vertices on `stack`, then every vertex whose degree falls
    below 2 in turn, by clearing alive[v].  deg[v] is kept as the number of
    live neighbours of each live vertex; deg and alive are lists or dicts
    indexed by vertex.  Started from every vertex of degree < 2 of a whole
    graph, it leaves alive exactly the 2-core."""
    while stack:
        v = stack.pop()
        if alive[v]:
            alive[v] = False
            for w in adj[v]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] < 2:
                        stack.append(w)


def suppressed_multigraph(adj, branch: list[int]) -> list[list[int]]:
    """Smooth away the degree-2 vertices between the vertices of `branch`.

    adj maps each vertex to its neighbours, as for walk_chain, and `branch`
    holds exactly the vertices reachable from it whose degree is not 2 (for
    a whole graph, every vertex of degree != 2).  Returns each chain between
    branch vertices once, as its vertex list [u, ..., v], u == v for a
    loop; its length is one less than its size.  A chain with an interior
    is walked from whichever of its ends comes first in `branch`.  An edge
    between two branch vertices is the chain [u, v] with u < v, recorded
    without a walk; a cycle component through no branch vertex gives no
    chain.
    """
    chains = []
    walked = set()
    for u in branch:
        for w in adj[u]:
            if len(adj[w]) != 2:
                if u < w:
                    chains.append([u, w])
            elif w not in walked:
                chain = [u, *walk_chain(adj, u, w)]
                walked.add(chain[-2])
                chains.append(chain)
    return chains


def strict_ears(g: Graph) -> list[StrictEar]:
    """All maximal strict ears whose endpoints have degree != 2: the
    chains of suppressed_multigraph with an interior and distinct ends.
    The branch vertices are listed in increasing order, so each chain
    starts at its smaller end.

    Each internal degree-2 vertex lies on at most one returned ear.  Pure
    degree-2 cycles and loops hanging at a single branch vertex contribute
    nothing here; fixed-length ear segments inside such cycles are the
    reduction engine's business.
    """
    branch = [v for v in range(g.n) if g.degree(v) != 2]
    ears = sorted(tuple(c) for c in suppressed_multigraph(g.adj, branch) if len(c) > 2 and c[0] != c[-1])
    return [StrictEar(vertices=ear) for ear in ears]


def blocks(edges) -> list[list[tuple[int, int]]]:
    """The blocks (maximal 2-connected subgraphs, and bridges) of the graph
    formed by `edges`, each as a list of its edges as sorted pairs.
    Hopcroft-Tarjan (1973) in O(n + m), with a stack of neighbour
    iterators instead of recursion, so depth has no limit."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    out: list[list[tuple[int, int]]] = []
    estack: list[tuple[int, int]] = []       # tree and back edges not yet in a block
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        # (u, its parent, its neighbour iterator, where the tree edge into u sits on estack)
        stack = [(root, None, iter(adj[root]), 0)]
        while stack:
            u, parent, it, mark = stack[-1]
            for w in it:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, u, iter(adj[w]), len(estack)))
                    estack.append(normalize_edge(u, w))
                    break
                if w != parent and disc[w] < disc[u]:      # a back edge, seen from below
                    estack.append(normalize_edge(u, w))
                    low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[u])
                    if low[u] >= disc[parent]:             # no back edge from u's subtree climbs above parent
                        out.append(estack[mark:])
                        del estack[mark:]
    return out


def enumerate_cycles(g: Graph, cap: int) -> list[tuple[int, ...]]:
    """Every simple cycle of g as a vertex sequence, provided there are at
    most `cap` of them; otherwise raises CycleCapExceeded.

    Each cycle is reported once, anchored at its smallest vertex with the
    smaller of its two neighbors on the cycle in second position.  The
    cycles anchored at s lie in the 2-core of G[>= s]; that core is
    computed once and shrunk by peeling s away after its search, so all
    cores together cost O(n + m).  The depth-first search keeps a stack
    of neighbor iterators instead of recursing, so cycle length is not
    bounded by the interpreter's recursion limit.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    deg = g.degrees()
    in_core = [True] * g.n
    peel(g.adj, deg, in_core, [v for v in range(g.n) if deg[v] < 2])
    nbrs = [sorted(w for w in g.adj[v] if in_core[w]) for v in range(g.n)]
    onpath = [False] * g.n
    cycles: list[tuple[int, ...]] = []
    for s in range(g.n):
        if not in_core[s]:
            continue
        path = [s]
        onpath[s] = True
        iters = [iter(nbrs[s])]
        while iters:
            for w in iters[-1]:
                if w == s and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(tuple(path))
                    if len(cycles) > cap:
                        raise CycleCapExceeded(f"more than {cap} simple cycles")
                elif in_core[w] and not onpath[w]:
                    path.append(w)
                    onpath[w] = True
                    iters.append(iter(nbrs[w]))
                    break
            else:
                iters.pop()
                onpath[path.pop()] = False
        peel(g.adj, deg, in_core, [s])
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
