"""Exact subgraph density, maximum average degree, and a brute-force
shallow-minor density for tiny graphs.

`max_subgraph_density` works on the 2-core and has three closed forms.
Deleting a vertex of degree <= 1 never lowers a density that is >= 1, so
a graph with a cycle reaches its maximum, which is >= 1, inside its
2-core.  A forest (empty 2-core) has maximum (c-1)/c, with c the order of
its largest component.  A 2-core without a vertex of degree >= 3 is a
union of cycles, of density exactly 1.

Otherwise an optimal subgraph of the 2-core takes each degree-2 chain
whole or not at all, so only the branch vertices (core degree >= 3) are
decided; `graph.suppressed_multigraph` lists the chains between them.
Dinkelbach (1967) iterations start at the core's density lambda = a/b,
kept as integers.  Each round asks whether some subgraph
has positive gain b*edges - a*vertices.  For a set S of branch vertices
the best gain is the total weight w of the chains with both ends in S,
minus a|S|: a chain of length L is worth b*L - a*(L-1), taken only when
positive, and a loop chain counts at its one vertex.  That is a min-cut
on Goldberg's network (1984) with one node per branch vertex and one arc
pair per chain, of capacity w both ways.  The source->v and v->sink arcs
keep only the excess: with d_w(v) the weighted degree (a loop counted
twice), source->v carries d_w(v) - 2a when positive and v->sink carries
2a - d_w(v) otherwise, so no big-M is needed.  S has positive gain
exactly when the maximum flow leaves some source arc unsaturated; then
the source side of the minimum cut, with its positive chains, is a
subgraph denser than lambda and the next candidate.  A round without
supply needs no flow.  The result is the exact Fraction.

`nabla_r_bruteforce` enumerates families of disjoint rooted blocks of
bounded radius, keeps the minor edges allowed by the root-distance rule,
collapses parallel edges, and maximizes edges/vertices.  It exists to
test inequalities at desk scale, not to certify anything large.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from .graph import Graph, build_graph, connected_components, peel, suppressed_multigraph


class StateCapExceeded(RuntimeError):
    """The shallow-minor search visited more states than allowed."""


def _min_cut_levels(head, to, cap, s: int, t: int) -> list[int]:
    """Dinic's maximum s-t flow on the residual capacities `cap` (arc i and
    its reverse i ^ 1), changed in place.  Returns the levels of the last
    breadth-first search: level[v] >= 0 exactly for the vertices on the
    source side of a minimum cut.

    Augmenting paths are a stack of arcs, not recursion, so their length
    is not bounded by the recursion limit.  it[u] is the next arc to try
    at u; an arc is passed over only once the search behind it dead-ends,
    and after a push the search resumes at the tail of the first arc the
    push saturated."""
    while True:
        level = [-1] * len(head)
        level[s] = 0
        queue = [s]
        for u in queue:
            for i in head[u]:
                v = to[i]
                if cap[i] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            return level
        it = [0] * len(head)
        path: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(map(cap.__getitem__, path))
                for i in path:
                    cap[i] -= pushed
                    cap[i ^ 1] += pushed
                x = 0
                while cap[path[x]]:
                    x += 1
                del path[x:]
                u = to[path[-1]] if path else s
            arcs = head[u]
            up = level[u] + 1
            for x in range(it[u], len(arcs)):
                i = arcs[x]
                if cap[i] > 0 and level[to[i]] == up:
                    it[u] = x
                    path.append(i)
                    u = to[i]
                    break
            else:
                it[u] = len(arcs)
                if not path:
                    break
                u = to[path.pop() ^ 1]
                it[u] += 1


def max_subgraph_density(g: Graph) -> Fraction:
    """Maximum of edges/vertices over nonempty subgraphs, exact."""
    if g.n == 0:
        raise ValueError("empty graph has no nonempty subgraph")
    adj = g.adj
    deg = g.degrees()
    core = [True] * g.n
    a, b = g.m, g.n
    stack = [v for v in range(g.n) if deg[v] < 2]
    if stack:
        peel(adj, deg, core, stack)
        adj = [[w for w in nbrs if core[w]] for nbrs in adj]
        b = sum(core)
        if not b:
            c = max(len(comp) for comp in connected_components(g))
            return Fraction(c - 1, c)
        a = sum(d for d, alive in zip(deg, core) if alive) // 2
    branch = [v for v in range(g.n) if core[v] and deg[v] >= 3]
    if not branch:
        return Fraction(1)
    pos = {v: i for i, v in enumerate(branch)}
    # (i, j, L): a chain of length L between branch[i] and branch[j], i == j for a loop
    links = [(pos[c[0]], pos[c[-1]], len(c) - 1) for c in suppressed_multigraph(adj, branch)]
    # arcs 4v, 4v+1: source->v and back; 4v+2, 4v+3: v->sink and back;
    # then 4k+2p, 4k+2p+1 join the ends of links[p] (a loop's pair never
    # carries flow).  Arcs into the source or out of the sink lie on no
    # augmenting path, so no head list holds them.
    k = len(branch)
    s, t = k, k + 1
    to: list[int] = []
    for v in range(k):
        to += (v, s, t, v)
    head = [[4 * v + 2] for v in range(k)] + [list(range(0, 4 * k, 4)), []]
    for i, j, _ in links:
        head[i].append(len(to))
        head[j].append(len(to) + 1)
        to += (j, i)
    while True:
        weights = [max(0, b * L - a * (L - 1)) for _, _, L in links]
        excess = [-2 * a] * k
        chain_cap: list[int] = []
        for (i, j, _), w in zip(links, weights):
            excess[i] += w
            excess[j] += w          # so a loop counts twice
            chain_cap += (w, w)
        if max(excess) <= 0:
            return Fraction(a, b)
        cap: list[int] = []
        for x in excess:
            cap += (x, 0, 0, 0) if x > 0 else (0, 0, -x, 0)
        level = _min_cut_levels(head, to, cap + chain_cap, s, t)
        nodes = sum(1 for x in level[:k] if x >= 0)
        if not nodes:
            return Fraction(a, b)
        edges = 0
        for (i, j, L), w in zip(links, weights):
            if w and level[i] >= 0 and level[j] >= 0:
                edges += L
                nodes += L - 1
        a, b = edges, nodes


def _induced_edge_count(g: Graph, vs: set[int]) -> int:
    return sum(1 for u, v in g.edges if u in vs and v in vs)


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
    # each vertex is left out or opens a new block, so the search tree has
    # at least 2^(n+1) - 1 states; refuse before the n^2 distance table
    if (1 << (n + 1)) - 1 > cap:
        raise StateCapExceeded(f"more than {cap} partition states")
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
