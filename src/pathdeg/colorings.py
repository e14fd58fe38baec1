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

Both read one backward build of the certificate (`_backward_paths`), the
paths its steps add back, kept in `graph.derived` beside the greedy run
it reads: colorings with the same p on one graph object build it once.
Each end of a path takes the smallest color missing there, from a
pointer per vertex that only moves up, and the rest of the path counts
its colors up from 1 past those two.  So each vertex and edge costs O(1)
amortized, and the acyclic coloring is linear at a hub of any degree.

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
from itertools import combinations, count, cycle, islice

from .graph import Graph, blocks, core_skeleton, derived
from .reduction import EAR, LEAF, certificate_or_raise


@dataclass(frozen=True)
class EdgeColoring:
    """Total mapping edge -> color index in 1..K."""

    colors: dict[tuple[int, int], int]

    @property
    def num_colors(self) -> int:
        return len(set(self.colors.values()))


def _backward_paths(g: Graph, p: int) -> tuple:
    """The paths the steps of g's greedy p-certificate add back, in reverse
    deletion order: (u, v) for a leaf v attached at u, the vertex sequence
    for an ear.  Every edge of g lies on exactly one of them.  Raises
    NotPathDegenerate when g is not p-path degenerate.

    Built once per graph object and p (`derived`) and shared: readers
    must not change it."""
    def build(g: Graph) -> tuple:
        built = [False] * g.n
        paths = []
        for step in reversed(certificate_or_raise(g, p).steps):
            vs = step.vertices
            if step.kind == EAR:
                paths.append(vs)
                for v in vs[1:-1]:
                    built[v] = True
                continue
            (v,) = vs
            if step.kind == LEAF:
                attached = [u for u in g.adj[v] if built[u]]
                assert len(attached) == 1, "leaf step must attach by exactly one edge"
                paths.append((attached[0], v))
            built[v] = True
        return tuple(paths)

    return derived(g, ("backward_paths", p), build)


def arboricity_coloring(g: Graph, r: int) -> EdgeColoring:
    """At most r+1 colors; every cycle carries >= min(|C|, r+1) distinct
    colors.  Requires g to be (r+1)-path degenerate."""
    if r < 1:
        raise ValueError("r must be >= 1")
    paths = _backward_paths(g, r + 1)
    colors: dict[tuple[int, int], int] = {}
    wheel = [i % (r + 1) + 1 for i in range(max(map(len, paths), default=0))]
    for seq in paths:                      # r+1 colors cyclically along each path
        if len(seq) == 2:                  # a leaf edge
            u, v = seq
            colors[(u, v) if u < v else (v, u)] = 1
            continue
        for a, b, c in zip(seq, seq[1:], wheel):
            colors[(a, b) if a < b else (b, a)] = c
    assert len(colors) == g.m, "certificate replay must color every edge once"
    return EdgeColoring(colors=colors)


def acyclic_edge_coloring(g: Graph, r: int) -> EdgeColoring:
    """Proper edge coloring with at most max(degree, r) colors in which
    every cycle carries >= min(|C|, r) distinct colors.  Requires g to be
    (r+1)-path degenerate."""
    if r < 3:
        raise ValueError("r must be >= 3")
    paths = _backward_paths(g, r + 1)
    limit = max(g.max_degree(), r)
    colors: dict[tuple[int, int], int] = {}
    # A path meets the graph built before it only at its ends, and each end
    # takes the smallest color missing there.  So the colors at v are the
    # ones its own path gave it (made[v]: none, one for a leaf, two inside
    # an ear) and every other color below nxt[v], a pointer that only
    # moves up: O(1) amortized per edge, at a hub too.
    made: list[tuple[int, ...]] = [()] * g.n
    nxt = [1] * g.n

    def take(v: int) -> int:
        """The smallest color missing at v, which the caller puts there."""
        c = nxt[v]
        while c in made[v]:
            c += 1
        nxt[v] = c + 1
        return c

    for seq in paths:
        k = len(seq) - 1                      # 1 for a leaf edge, >= r+1 for an ear
        alpha = take(seq[0])
        if k == 1:
            u, v = seq
            colors[(u, v) if u < v else (v, u)] = alpha
            made[v] = (alpha,)
            continue
        beta = take(seq[-1])
        out = [alpha]
        if alpha != beta:
            out += islice((c for c in count(1) if c != alpha and c != beta), r - 2)
            for i in range(r - 1, k - 1):     # the smallest color unlike its neighbours
                c = 1
                while c == out[-1] or (i == k - 2 and c == beta):
                    c += 1
                out.append(c)
        else:
            palette = [c + (c >= alpha) for c in range(1, min(r, limit - 1) + 1)]
            out += islice(cycle(palette), k - 2)
        out.append(beta)
        for a, b, c in zip(seq, seq[1:], out):
            colors[(a, b) if a < b else (b, a)] = c
        for v, c, d in zip(seq[1:-1], out, out[1:]):
            made[v] = (c, d)
    assert len(colors) == g.m
    coloring = EdgeColoring(colors=colors)
    assert coloring.num_colors <= limit
    return coloring


MAX_COLOR_SUBSETS = 100_000      # the most color subsets verify_cycle_rainbow checks


def _total(g: Graph, coloring: EdgeColoring) -> dict[tuple[int, int], int]:
    """coloring.colors, if it covers exactly the edges of g; else raises."""
    if coloring.colors.keys() != g.edges:
        raise ValueError("coloring is not a total mapping on the graph's edges")
    return coloring.colors


def _colors_at(g: Graph, coloring: EdgeColoring) -> list[dict[int, int]]:
    """at[u][v]: the color of edge uv.  Raises on a coloring that does not
    cover exactly the edges of g."""
    at: list[dict[int, int]] = [{} for _ in range(g.n)]
    for (u, v), c in _total(g, coloring).items():
        at[u][v] = at[v][u] = c
    return at


def verify_proper(g: Graph, coloring: EdgeColoring) -> bool:
    """True iff no two edges sharing a vertex share a color.  Raises on a
    coloring that does not cover every edge of g."""
    seen: list[set] = [set() for _ in range(g.n)]   # the colors met so far at each vertex
    for (u, v), c in _total(g, coloring).items():
        if c in seen[u] or c in seen[v]:
            return False
        seen[u].add(c)
        seen[v].add(c)
    return True


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
