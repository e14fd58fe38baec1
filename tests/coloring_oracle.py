"""Reference oracle for the colorings of `pathdeg.colorings`.

These are the colorings that `colorings.arboricity_coloring` and
`colorings.acyclic_edge_coloring` replaced, kept as they were: they
replay the greedy certificate backward with a set of built vertices, a
set of colors per vertex and a palette list per ear, so a hub of degree
d costs them O(d) per path that ends there.  The production colorings
must return the same `colors` dict, or raise the same error, on every
input.
"""

from __future__ import annotations

from pathdeg.colorings import EdgeColoring
from pathdeg.graph import Graph, normalize_edge
from pathdeg.reduction import EAR, LEAF, certificate_or_raise


def _backward_paths(g: Graph, cert):
    """Yield, in reverse deletion order, the path each step adds back:
    (u, v) for a leaf v attached at u, the vertex sequence for an ear.
    Every edge of g lies on exactly one of them."""
    built: set[int] = set()
    for step in reversed(cert.steps):
        if step.kind == LEAF:
            (v,) = step.vertices
            attached = [u for u in g.adj[v] if u in built]
            assert len(attached) == 1, "leaf step must attach by exactly one edge"
            yield (attached[0], v)
        elif step.kind == EAR:
            yield step.vertices
        built.update(step.deleted)


def arboricity_coloring(g: Graph, r: int) -> EdgeColoring:
    """At most r+1 colors; every cycle carries >= min(|C|, r+1) distinct
    colors.  Requires g to be (r+1)-path degenerate."""
    if r < 1:
        raise ValueError("r must be >= 1")
    cert = certificate_or_raise(g, r + 1)
    colors: dict[tuple[int, int], int] = {}
    for seq in _backward_paths(g, cert):   # r+1 colors cyclically along each path
        for i, (a, b) in enumerate(zip(seq, seq[1:])):
            colors[normalize_edge(a, b)] = i % (r + 1) + 1
    assert len(colors) == g.m, "certificate replay must color every edge once"
    return EdgeColoring(colors=colors)


def _smallest_missing(used, limit: int) -> int:
    for c in range(1, limit + 1):
        if c not in used:
            return c
    raise AssertionError("no free color below the palette limit")


def acyclic_edge_coloring(g: Graph, r: int) -> EdgeColoring:
    """Proper edge coloring with at most max(degree, r) colors in which
    every cycle carries >= min(|C|, r) distinct colors.  Requires g to be
    (r+1)-path degenerate."""
    if r < 3:
        raise ValueError("r must be >= 3")
    cert = certificate_or_raise(g, r + 1)
    limit = max(g.max_degree(), r)
    colors: dict[tuple[int, int], int] = {}
    at: list[set[int]] = [set() for _ in range(g.n)]   # colors on the edges at each vertex

    def assign(e: tuple[int, int], c: int) -> None:
        colors[e] = c
        at[e[0]].add(c)
        at[e[1]].add(c)

    for seq in _backward_paths(g, cert):
        edges = [normalize_edge(a, b) for a, b in zip(seq, seq[1:])]
        k = len(edges)                        # 1 for a leaf edge, >= r+1 for an ear
        alpha = _smallest_missing(at[seq[0]], limit)
        assign(edges[0], alpha)
        if k == 1:
            continue
        beta = _smallest_missing(at[seq[-1]], limit)
        assign(edges[-1], beta)
        if alpha != beta:
            middle = [c for c in range(1, limit + 1) if c not in (alpha, beta)][: r - 2]
            for i, c in enumerate(middle, start=1):
                assign(edges[i], c)
            for i in range(r - 1, k - 1):
                banned = {colors[edges[i - 1]]}
                if i == k - 2:
                    banned.add(beta)
                assign(edges[i], _smallest_missing(banned, limit))
        else:
            palette = [c for c in range(1, limit + 1) if c != alpha][:r]
            for i in range(1, k - 1):
                assign(edges[i], palette[(i - 1) % len(palette)])
    assert len(colors) == g.m
    coloring = EdgeColoring(colors=colors)
    assert coloring.num_colors <= limit
    return coloring
