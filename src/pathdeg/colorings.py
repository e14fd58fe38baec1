"""Edge colorings built from an ear-reduction certificate.

Replaying a reduction certificate backward adds, at each step, either a
pendant edge or a whole ear whose interior has degree 2 in the graph
built so far.  Any cycle therefore either lives in the previously built
graph or traverses the new ear completely, so coloring the ear with
enough distinct colors maintains the cycle conditions:

- `arboricity_coloring` colors ears cyclically with r+1 colors so every
  cycle sees at least min(|C|, r+1) distinct colors, using at most r+1
  colors overall (one color on forests).
- `acyclic_edge_coloring` additionally keeps the coloring proper, using
  at most max(degree, r) colors with every cycle seeing at least
  min(|C|, r) of them.

`verify_cycle_rainbow` checks the cycle condition by blocks of unions of
color classes, not by listing cycles: r+1 color subsets per block for an
arboricity coloring, C(max(degree, r), r-1) for an acyclic one, each
checked on the block's degree-2 chains (`graph.core_skeleton`) in time
linear in their number: `graph.blocks` takes the chains as the edges of a
multigraph, closed chains as loops, and a loop needs no subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, blocks, core_skeleton, normalize_edge
from .reduction import EAR, LEAF, certificate_or_raise


@dataclass(frozen=True)
class EdgeColoring:
    """Total mapping edge -> color index in 1..K."""

    colors: dict[tuple[int, int], int]

    @property
    def num_colors(self) -> int:
        return len(set(self.colors.values()))


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


MAX_COLOR_SUBSETS = 100_000      # the most color subsets verify_cycle_rainbow checks


def _colors_at(g: Graph, coloring: EdgeColoring) -> list[dict[int, int]]:
    """at[u][v]: the color of edge uv.  Raises on a coloring that does not
    cover exactly the edges of g."""
    if set(coloring.colors) != set(g.edges):
        raise ValueError("coloring is not a total mapping on the graph's edges")
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    for (u, v), c in coloring.colors.items():
        at[u][v] = at[v][u] = c
    return at


def verify_proper(g: Graph, coloring: EdgeColoring) -> bool:
    """True iff no two edges sharing a vertex share a color.  Raises on a
    coloring that does not cover every edge of g."""
    return all(len(set(c.values())) == len(c) for c in _colors_at(g, coloring))


def verify_cycle_rainbow(g: Graph, coloring: EdgeColoring, t: int) -> bool:
    """True iff every simple cycle C carries >= min(|C|, t) distinct
    colors.  Raises ValueError if t < 2, on a coloring that does not cover
    every edge of g, and if more than MAX_COLOR_SUBSETS subsets are due.

    A failing cycle lies in a block B of g, and its colors fit in a set S
    of min(k, t-1) of the k colors of B; it repeats a color inside a block
    of the S-colored edges of B.  Conversely, two edges of one color in
    such a block lie on a common cycle (Whitney), which then fails.  So
    each block with a cycle needs at most C(k, min(k, t-1)) subsets S.

    The blocks with a cycle are those of the 2-core, found on its chain
    skeleton (`graph.core_skeleton`): each chain is one edge (u, v,
    length, colors) of a multigraph, and a closed chain (a loop chain or a
    core component without a branch vertex) is a loop, a block that is one
    cycle: with k colors it fails exactly when k < min(|C|, t), and costs
    no subset.  The S-colored edges of another block B are the chains of
    B with all their colors in S, plus pieces of the other chains, which
    lie on no cycle of them.  So each S costs O(chains of B): take the
    blocks with a cycle of the kept chains, and fail one whose chains hold
    more edges than colors (a block of one chain is a bridge).
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    at = _colors_at(g, coloring)
    chains = [(c[0], c[-1], len(c) - 1, frozenset(at[x][y] for x, y in zip(c, c[1:]))) for c in core_skeleton(g)[3]]
    parts = blocks(chains)
    if any(b[0][0] == b[0][1] and len(b[0][3]) < min(b[0][2], t) for b in parts):   # a loop is a block
        return False
    work = [(b, sorted(frozenset().union(*(c[3] for c in b)))) for b in parts if len(b) > 1]
    subsets = sum(math.comb(len(palette), min(len(palette), t - 1)) for _, palette in work)
    if subsets > MAX_COLOR_SUBSETS:
        raise ValueError(f"cycle-rainbow check needs {subsets} color subsets, over the limit of {MAX_COLOR_SUBSETS}")
    for members, palette in work:
        for subset in combinations(palette, min(len(palette), t - 1)):
            chosen = frozenset(subset)
            for held in blocks([c for c in members if c[3] <= chosen]):
                if len(held) > 1 and sum(c[2] for c in held) > len(frozenset().union(*(c[3] for c in held))):
                    return False
    return True
