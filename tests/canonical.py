"""Canonical forms for the tests' isomorphism checks, and the published
count of connected graphs per order.

The canonical key is computed by color refinement plus individualization:
refine vertex colors by neighborhood color multisets, branch on the first
non-singleton color class, and take the minimum adjacency bitstring over
all discrete refinements.  A branch is skipped when its vertex is a twin
of one already tried in that class.  Exact for the tiny orders used here.

The tests prove `formats.builtin_corpus` complete with it: each graph is
connected, the count per order is `CONNECTED_COUNTS` (OEIS A001349), and
all canonical keys are distinct, so each order holds every isomorphism
class exactly once.
"""

from __future__ import annotations

from pathdeg.graph import Graph

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


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
    """canonical_key on a raw adjacency-mask tuple: the least leaf key of
    the refinement tree, searched with an explicit stack, so the depth of
    the tree is not bounded by the interpreter's recursion limit."""
    stack = [[0] * n]           # the first refinement ranks the degrees
    best = None
    while stack:
        colors = _refine(masks, stack.pop())
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            key = _key_from_perm(masks, sorted(range(n), key=lambda v: colors[v]))
            if best is None or key < best:
                best = key
            continue
        tried: list[int] = []
        for v in target:
            # a twin of a vertex already tried repeats its subtree: swapping
            # the two is an automorphism that keeps every color
            if any(masks[u] & ~(1 << v) == masks[v] & ~(1 << u) for u in tried):
                continue
            tried.append(v)
            stack.append([c * 2 + (0 if u == v else 1) for u, c in enumerate(colors)])
    return best


def canonical_key(g: Graph):
    """Hashable key identical for isomorphic graphs of the same order."""
    return (g.n, _mask_key(g.n, _masks(g)))
