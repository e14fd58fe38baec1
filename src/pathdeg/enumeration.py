"""Isomorph-free enumeration of small graphs and a canonical-form helper.

The canonical key is computed by color refinement plus individualization:
refine vertex colors by neighborhood color multisets, branch on the first
non-singleton color class, and take the minimum adjacency bitstring over
all discrete refinements.  A branch is skipped when its vertex is a twin
of one already tried in that class.  Exact for the tiny orders used here.

`connected_graphs` regenerates the corpus from scratch; the package ships
the result for n <= 8 as data/connected_graphs_le8.g6 so tests can load
it instead of spending a minute rebuilding it.
"""

from __future__ import annotations

from importlib import resources

from .formats import parse_graph6
from .graph import Graph, build_graph, is_connected

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
ALL_GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def _masks(g: Graph) -> tuple[int, ...]:
    out = [0] * g.n
    for u, v in g.edges:
        out[u] |= 1 << v
        out[v] |= 1 << u
    return tuple(out)


def _refine(masks, colors):
    n = len(masks)
    while True:
        sigs = []
        for v in range(n):
            nb = []
            m = masks[v]
            while m:
                low = m & -m
                nb.append(colors[low.bit_length() - 1])
                m ^= low
            nb.sort()
            sigs.append((colors[v], tuple(nb)))
        order = sorted(set(sigs))
        ranks = {s: i for i, s in enumerate(order)}
        new = [ranks[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


def _key_from_perm(masks, perm_by_color):
    # perm_by_color[i] = original vertex placed at new position i
    n = len(masks)
    pos = [0] * n
    for i, v in enumerate(perm_by_color):
        pos[v] = i
    key = 0
    for v in range(n):
        m = masks[v]
        pv = pos[v]
        while m:
            low = m & -m
            w = low.bit_length() - 1
            m ^= low
            pw = pos[w]
            if pv < pw:
                key |= 1 << (pv * n + pw)
    return key


def _mask_key(n, masks):
    """canonical_key on a raw adjacency-mask tuple (enumeration hot path)."""
    best = None

    def search(colors):
        nonlocal best
        colors = _refine(masks, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            perm = sorted(range(n), key=lambda v: colors[v])
            key = _key_from_perm(masks, perm)
            if best is None or key < best:
                best = key
            return
        tried: list[int] = []
        for v in target:
            # a twin of a vertex already tried repeats its subtree: swapping
            # the two is an automorphism that keeps every color
            if any(masks[u] & ~(1 << v) == masks[v] & ~(1 << u) for u in tried):
                continue
            tried.append(v)
            branched = [c * 2 + (0 if u == v else 1) for u, c in enumerate(colors)]
            search(branched)

    deg_colors = [bin(m).count("1") for m in masks]
    order = sorted(set(deg_colors))
    ranks = {d: i for i, d in enumerate(order)}
    search([ranks[d] for d in deg_colors])
    return best


def canonical_key(g: Graph):
    """Hashable key identical for isomorphic graphs of the same order."""
    return (g.n, _mask_key(g.n, _masks(g)))


def all_graphs(n: int):
    """All graphs on n vertices up to isomorphism, as adjacency-mask
    tuples, generated level by level (by edge count) with canonical-form
    deduplication."""
    if n == 0:
        return
    level = {(_mask_key(n, tuple([0] * n))): tuple([0] * n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while level:
        yield from level.values()
        nxt: dict[int, tuple[int, ...]] = {}
        for masks in level.values():
            for i, j in pairs:
                if masks[i] >> j & 1:
                    continue
                grown = list(masks)
                grown[i] |= 1 << j
                grown[j] |= 1 << i
                grown_t = tuple(grown)
                key = _mask_key(n, grown_t)
                if key not in nxt:
                    nxt[key] = grown_t
        level = nxt


def _masks_to_graph(n, masks) -> Graph:
    edges = []
    for v in range(n):
        m = masks[v] >> (v + 1)
        w = v + 1
        while m:
            if m & 1:
                edges.append((v, w))
            m >>= 1
            w += 1
    return build_graph(n, edges)


def connected_graphs(n: int):
    """All connected graphs on exactly n vertices, up to isomorphism."""
    for masks in all_graphs(n):
        g = _masks_to_graph(n, masks)
        if is_connected(g):
            yield g


def builtin_corpus() -> list[Graph]:
    """The shipped corpus: every connected graph on at most 8 vertices."""
    text = resources.files("pathdeg").joinpath("data/connected_graphs_le8.g6").read_text()
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]
