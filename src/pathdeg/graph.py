"""Immutable simple undirected graphs and the structural primitives used
throughout the package: subdivision, the degree-2 chain walk and
chains_through, the one chain decomposition built on it (the reduction
engine, its oracles and core_skeleton all read it; the engine also has
it join the chains it walked before), the 2-core peel,
core_skeleton (every maximal degree-2 chain of the 2-core) and its
inverse chain_graph, girth, the block decomposition of a multigraph
(parallel edges and loops included, so it takes core_skeleton's chains
as they are), bounded enumeration of simple cycles, and `derived`, the
one slot that keeps values built from the graph object last passed.

Vertices are the integers 0..n-1.  Edges are stored as sorted pairs, and
adjacency is kept as per-vertex frozensets, so graphs are hashable and safe
to share between computations.

The graphs of interest are mostly subdivision vertices, so `girth`,
`density.mad` and `colorings.verify_cycle_rainbow` read core_skeleton,
whose size is the number of chains, not of vertices; only building it
walks the whole graph, once per graph object.  `blocks` is one linear
pass over the edges it is given: every edge of a graph, or the chains of
a skeleton.  `enumerate_cycles` is exponential in the worst case and
serves the tests and the public API only; its brute-force oracles live
in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        return max(map(len, self.adj), default=0)

    def degrees(self) -> list[int]:
        return list(map(len, self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u] if 0 <= u < self.n else False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.m})"


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
    original-id order; g itself when that is all of g's vertices."""
    keep = sorted(set(vertices))
    if len(keep) == g.n and keep == list(range(g.n)):
        return g
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
    The interior vertices are numbered n, n+1, ... in link order.  The
    inverse of core_skeleton's chains: on a 2-core whose branch vertices
    are 0..n-1, one in each component, the (c[0], c[-1], len(c) - 1) of
    its chains rebuild it up to the interior numbering.  Raises
    ValueError, naming the link, on a length below 1, a loop (u == v)
    shorter than 3 and a second length-1 link between one pair: none has
    a simple graph to build."""
    edges = []
    nxt = n
    direct = set()
    for u, v, length in links:
        if length < 1:
            raise ValueError(f"link ({u}, {v}, {length}): a chain needs length >= 1")
        if u == v and length < 3:
            raise ValueError(f"link ({u}, {v}, {length}): a loop needs length >= 3")
        if length == 1:
            if normalize_edge(u, v) in direct:
                raise ValueError(f"link ({u}, {v}, {length}): a second length-1 link between {u} and {v}")
            direct.add(normalize_edge(u, v))
        chain = [u, *range(nxt, nxt + length - 1), v]
        nxt += length - 1
        edges.extend(zip(chain, chain[1:]))
    return build_graph(nxt, edges)


def walk_chain(adj, prev: int, cur: int, known=None) -> list[int]:
    """Vertices from cur on, moving away from prev through degree-2
    vertices: up to the first vertex of another degree, or back to prev
    when the walk closes a cycle.  adj maps each vertex to its neighbours
    (a Graph's adj tuple, a list or a dict of sets).  known is as for
    chains_through: where the walk enters a recorded chain s at s[1] from
    s[0], or at s[-2] from s[-1], it takes s to its far end at once."""
    start = prev
    out = [cur]
    while cur != start and len(adj[cur]) == 2:
        if known is not None and (s := known[cur]) is not None:
            if s[0] == prev and s[1] == cur:
                out += s[2:]
                prev, cur = s[-2], s[-1]
                continue
            if s[-1] == prev and s[-2] == cur:
                out += s[-3::-1]
                prev, cur = s[1], s[0]
                continue
        x, y = adj[cur]
        prev, cur = cur, (y if x == prev else x)
        out.append(cur)
    return out


def chains_through(adj, vertices, known=None):
    """Each maximal degree-2 chain through a degree-2 vertex of `vertices`,
    once, as (s, closed).  closed: s is a cycle component in cyclic order,
    from the first of its vertices met.  Otherwise s runs through the
    chain's interior between two vertices of another degree (one, for a
    loop).  adj is as for walk_chain.  Every strict ear lies inside one
    of these chains.

    known, when given, is a list indexed by vertex in which each open
    chain s yielded is recorded under s[1] and s[-2].  A walk that enters
    a recorded chain at one of those vertices from the end beside it
    takes the chain whole, so a later call joins the chains that meet at
    a vertex fallen to degree 2 instead of walking them again.  The
    caller keeps that exact: it only deletes vertices between calls,
    calls only when no vertex has degree below 2, and after the first
    call passes only vertices that had degree above 2 at the call
    before.  A recorded chain that a walk enters is then still a path of
    degree-2 vertices, and it does not hold the walk's first vertex."""
    walked: set[int] = set()
    for v in vertices:
        if v in walked or len(adj[v]) != 2:
            continue
        a, b = adj[v]
        right = walk_chain(adj, v, a, known)
        if right[-1] == v:
            s, closed = [v, *right[:-1]], True
        else:
            left = walk_chain(adj, v, b, known)
            left.reverse()
            s, closed = [*left, v, *right], False
            if known is not None:
                known[s[1]] = known[s[-2]] = s
        walked.update(s)
        yield s, closed


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


# The graph last passed to `derived` and the values built from it, by key.
# A call reads and replaces the slot as one tuple, so each call writes into
# the values of its own graph even when threads interleave.
_slot: tuple[Graph | None, dict] = (None, {})


def derived(g: Graph, key, build):
    """build(g), kept under `key` for the graph object last passed, so a
    pipeline on one graph builds each value once.  The match is by
    identity (`is`), never by equality: an equal graph built anew is
    computed afresh.  The slot holds that one graph and its values until
    a call on another graph replaces it.  The values are shared, so no
    caller may change one."""
    global _slot
    graph, values = _slot
    if graph is not g:
        values = {}
        _slot = (g, values)
    if key not in values:
        values[key] = build(g)
    return values[key]


def core_skeleton(g: Graph) -> tuple:
    """g's 2-core as its maximal degree-2 chains, the one decomposition
    that `density.mad`, `girth` and `colorings.verify_cycle_rainbow` read,
    as the tuple (order, size, branch, chains, links):

    - order, size: the core's vertex and edge counts;
    - branch: its vertices of core degree >= 3, in increasing order;
    - chains: each chain between branch vertices once, as its vertex list
      [u, ..., v] with u <= v (u == v for a loop), the edges between
      branch vertices first; then each core component without a branch
      vertex, a cycle, as a closed chain [v, ..., v].  A chain's length
      is one less than its size;
    - links: one (i, j, L) per chain before the cycle components, of
      length L between branch[i] and branch[j] (i == j for a loop).

    Built once per graph object (`derived`) and shared: readers must not
    change it.
    """
    return derived(g, "core_skeleton", _skeleton)


def _skeleton(g: Graph) -> tuple:
    """core_skeleton, built: the peel, then one chains_through pass over
    every vertex.  A vertex off the core keeps at most one neighbour in
    the core's adjacency, so the pass meets only core chains."""
    adj = g.adj
    deg = g.degrees()
    core = [True] * g.n
    order, size = g.n, g.m
    stack = [v for v in range(g.n) if deg[v] < 2]
    if stack:
        peel(adj, deg, core, stack)
        adj = [[w for w in nbrs if core[w]] for nbrs in adj]
        order = sum(core)
        size = sum(d for d, alive in zip(deg, core) if alive) // 2
    branch = [v for v in range(g.n) if core[v] and deg[v] >= 3]
    chains = [[u, w] for u in branch for w in adj[u] if u < w and len(adj[w]) != 2]
    cycles = []
    for s, closed in chains_through(adj, range(g.n)):
        if closed:
            cycles.append(s + s[:1])
        else:
            chains.append(s if s[0] <= s[-1] else s[::-1])
    pos = {v: i for i, v in enumerate(branch)}
    links = [(pos[c[0]], pos[c[-1]], len(c) - 1) for c in chains]
    return order, size, branch, chains + cycles, links


def girth(g: Graph):
    """Length of a shortest cycle, or INFINITE for forests.

    Every cycle lies in the 2-core.  A closed chain of core_skeleton (a
    loop or a core component without a branch vertex) is a cycle; any
    other cycle passes a branch vertex.  So from each branch vertex s,
    search the skeleton by distance buckets (Dial 1969), up to distance
    best/2.  A link (u, w) scanned from u that reaches an already reached
    w closes a walk of length dist[u] + L + dist[w] through s, which
    contains a cycle no longer than it, unless the link is u's tree link,
    which is skipped; it cannot be w's, which is scanned only once, as it
    reaches w.  A tree link is known by its position in the link list, so
    parallel chains stay apart.  Every vertex of a cycle C through s lies within |C|/2 of
    s, and C has a link off the search tree, so the search ends with
    best <= |C|.  Hence the search from s may skip the branch vertices
    searched before it: a shortest cycle is found from the first of its
    branch vertices.  With unit lengths this is breadth-first search.
    Each search costs O(links), so subdividing a graph adds only the O(n)
    of building the skeleton.
    """
    _, _, branch, chains, links = core_skeleton(g)
    best = min((len(c) - 1 for c in chains if c[0] == c[-1]), default=INFINITE)
    at: list[list[tuple[int, int, int]]] = [[] for _ in branch]
    for x, (i, j, L) in enumerate(links):
        if i != j:
            at[i].append((j, L, x))
            at[j].append((i, L, x))
    for s in range(len(branch)):
        dist = {s: 0}
        via = {s: -1}               # the link each vertex was reached by
        buckets = {0: [s]}
        while buckets:
            d = min(buckets)
            if 2 * d >= best:
                break
            for u in buckets.pop(d):
                if dist[u] != d:    # reached again, closer, after it was queued here
                    continue
                for w, L, x in at[u]:
                    if x == via[u] or w < s:
                        continue
                    dw = dist.get(w)
                    if dw is not None and d + L + dw < best:
                        best = d + L + dw
                    if dw is None or d + L < dw:
                        dist[w] = d + L
                        via[w] = x
                        buckets.setdefault(d + L, []).append(w)
    return best


def blocks(edges) -> list[list[tuple]]:
    """The blocks (maximal 2-connected subgraphs, bridges and loops) of the
    multigraph formed by `edges`, (u, v, ...) tuples joining u and v, each
    block as a list of the tuples it was given.  Parallel edges are told
    apart by their position in `edges`, so two of them form a block; a
    loop (u == v) is a block of its own.  Hopcroft-Tarjan (1973) in
    O(n + m), with a stack of neighbour iterators instead of recursion, so
    depth has no limit."""
    edges = list(edges)
    out: list[list[tuple]] = []
    adj: dict[int, list[tuple[int, int]]] = {}   # vertex -> (neighbour, edge position)
    for x, (u, v, *_) in enumerate(edges):
        if u == v:
            out.append([edges[x]])
        else:
            adj.setdefault(u, []).append((v, x))
            adj.setdefault(v, []).append((u, x))
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    estack: list[int] = []                   # tree and back edges not yet in a block
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        # (u, the tree edge into u, u's neighbour iterator, where that edge sits on estack)
        stack = [(root, -1, iter(adj[root]), 0)]
        while stack:
            u, via, it, mark = stack[-1]
            for w, x in it:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, x, iter(adj[w]), len(estack)))
                    estack.append(x)
                    break
                if x != via and disc[w] < disc[u]:         # a back edge, seen from below
                    estack.append(x)
                    low[u] = min(low[u], disc[w])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[u])
                    if low[u] >= disc[parent]:             # no back edge from u's subtree climbs above parent
                        out.append([edges[x] for x in estack[mark:]])
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
