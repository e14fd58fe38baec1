"""Reference oracles for the cycle computations of `pathdeg`.

- `count_cycles_via_cycle_space` and `enumerate_cycles_bruteforce` check
  `graph.enumerate_cycles` (and `girth`) on small graphs; both are
  exponential.
- `girth_bfs` is the breadth-first girth that `graph.girth` replaced:
  one BFS over the whole graph per vertex of degree >= 3 and per cycle
  component.
- `verify_cycle_rainbow_by_blocks` is the cycle-rainbow check that
  `colorings.verify_cycle_rainbow` replaced: `blocks` over every edge of
  a block, once per color subset, but a block that is one cycle through
  at most one branch vertex by its color count alone, as production
  decides a loop of the chain skeleton.
Both run in polynomial time, so they serve as references at any size
the tests reach.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

from pathdeg.colorings import MAX_COLOR_SUBSETS, EdgeColoring, _colors_at
from pathdeg.graph import (
    INFINITE,
    Graph,
    blocks,
    chains_through,
    connected_components,
    from_edges,
    is_connected,
    normalize_edge,
)


def count_cycles_via_cycle_space(g: Graph) -> int:
    """Independent cycle counter: XOR all combinations of a fundamental
    cycle basis and count the connected 2-regular edge sets.  Only usable
    when the cycle space dimension m - n + c is small."""
    comps = connected_components(g)
    dim = g.m - g.n + len(comps)
    if dim > 20:
        raise ValueError(f"cycle space dimension {dim} too large")
    edges = sorted(g.edges)
    bit = {e: 1 << i for i, e in enumerate(edges)}
    # to_root[v]: the edges of v's path to its component's root in a DFS forest
    to_root = [0] * g.n
    seen = [False] * g.n
    for comp in comps:
        seen[comp[0]] = True
        stack = [comp[0]]
        while stack:
            u = stack.pop()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    to_root[w] = to_root[u] ^ bit[normalize_edge(u, w)]
                    stack.append(w)
    # the fundamental cycle of each non-tree edge; a tree edge's comes out empty
    basis = [c for c in (bit[e] ^ to_root[e[0]] ^ to_root[e[1]] for e in edges) if c]
    # Gray-code order: the i-th element differs from the last by one basis cycle
    count = 0
    mask = 0
    for i in range(1, 1 << dim):
        mask ^= basis[(i & -i).bit_length() - 1]
        h = from_edges([e for e in edges if bit[e] & mask])
        if all(d == 2 for d in h.degrees()) and is_connected(h):
            count += 1
    return count


def enumerate_cycles_bruteforce(g: Graph) -> list[tuple[int, ...]]:
    """Oracle: find cycles by checking every permutation of every vertex
    subset.  Exponential; only for cross-checking on tiny graphs."""
    cycles = []
    for k in range(3, g.n + 1):
        for first, *rest in combinations(range(g.n), k):
            for perm in permutations(rest):
                seq = (first, *perm)
                if perm[0] < perm[-1] and all(b in g.adj[a] for a, b in zip(seq, seq[1:] + (first,))):
                    cycles.append(seq)
    cycles.sort()
    return cycles


def girth_bfs(g: Graph):
    """Length of a shortest cycle, or INFINITE for forests.

    BFS from every vertex of degree >= 3 and from one vertex of each
    component that is a cycle: a cycle through no vertex of degree >= 3
    is a whole component.  For each non-tree edge (u,w) seen, the closed
    walk of length dist[u]+dist[w]+1 contains a cycle no longer than it,
    and for a root on a shortest cycle the walk is tight.  The cost is
    O(n + m) per root, so a subdivided graph pays per branch vertex, not
    per subdivision vertex.
    """
    roots = [v for v in range(g.n) if len(g.adj[v]) >= 3]
    roots += [s[0] for s, closed in chains_through(g.adj, range(g.n)) if closed]
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


def _core_degrees(g: Graph) -> list[int]:
    """Each vertex's degree in the 2-core of g, 0 off it: vertices of
    degree < 2 deleted one at a time."""
    deg = g.degrees()
    stack = [v for v in range(g.n) if deg[v] < 2]
    gone = [False] * g.n
    while stack:
        v = stack.pop()
        if gone[v]:
            continue
        gone[v] = True
        deg[v] = 0
        for w in g.adj[v]:
            if not gone[w]:
                deg[w] -= 1
                if deg[w] < 2:
                    stack.append(w)
    return deg


def verify_cycle_rainbow_by_blocks(g: Graph, coloring: EdgeColoring, t: int) -> bool:
    """True iff every simple cycle C carries >= min(|C|, t) distinct
    colors.  Raises ValueError if t < 2, on a coloring that does not cover
    every edge of g, and if more than MAX_COLOR_SUBSETS subsets are due.

    A failing cycle lies in a block B of g, and its colors fit in a set S
    of min(k, t-1) of the k colors of B; it repeats a color inside a block
    of the S-colored edges of B.  Conversely, two edges of one color in
    such a block lie on a common cycle (Whitney), which then fails.  So
    each block with a cycle costs C(k, min(k, t-1)) linear passes, except
    a block that is one cycle through at most one vertex of 2-core degree
    >= 3 (a loop of the chain skeleton): its one cycle of L edges fails
    exactly when k < min(L, t), and it costs no subset.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    at = _colors_at(g, coloring)
    core = _core_degrees(g)
    work = []
    for block in blocks(g.edges):
        if len(block) < 3:                # a bridge
            continue
        palette = sorted({at[u][v] for u, v in block})
        ends = {x for e in block for x in e}
        if len(ends) == len(block) and sum(core[x] >= 3 for x in ends) <= 1:
            if len(palette) < min(len(block), t):
                return False
        else:
            work.append((block, palette))
    subsets = sum(math.comb(len(palette), min(len(palette), t - 1)) for _, palette in work)
    if subsets > MAX_COLOR_SUBSETS:
        raise ValueError(f"cycle-rainbow check needs {subsets} color subsets, over the limit of {MAX_COLOR_SUBSETS}")
    for block, palette in work:
        for subset in combinations(palette, min(len(palette), t - 1)):
            chosen = set(subset)
            for sub in blocks([(u, v) for u, v in block if at[u][v] in chosen]):
                if len({at[u][v] for u, v in sub}) < len(sub):
                    return False
    return True
