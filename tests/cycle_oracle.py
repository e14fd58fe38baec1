"""Reference oracles for `pathdeg.graph.enumerate_cycles`: a count over
the cycle space and a search over every permutation of every vertex
subset.

Both are exponential and serve only to cross-check the enumeration, and
`girth`, on small graphs.
"""

from __future__ import annotations

from itertools import combinations, permutations

from pathdeg.graph import Graph, connected_components, from_edges, is_connected, normalize_edge


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
