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
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, enumerate_cycles, normalize_edge
from .reduction import ISOLATED, LEAF, NotPathDegenerate, certificate_or_raise  # noqa: F401 (the colorings raise it)


@dataclass(frozen=True)
class EdgeColoring:
    """Total mapping edge -> color index in 1..K."""

    colors: dict[tuple[int, int], int]

    @property
    def num_colors(self) -> int:
        return len(set(self.colors.values()))

    def of(self, u: int, v: int) -> int:
        return self.colors[normalize_edge(u, v)]


def _backward_steps(g: Graph, cert):
    """Yield (step, built_vertices) in reverse deletion order; every edge
    of g is introduced by exactly one step."""
    built: set[int] = set()
    for step in reversed(cert.steps):
        yield step, built
        built.update(step.deleted)


def arboricity_coloring(g: Graph, r: int) -> EdgeColoring:
    """At most r+1 colors; every cycle carries >= min(|C|, r+1) distinct
    colors.  Requires g to be (r+1)-path degenerate."""
    if r < 1:
        raise ValueError("r must be >= 1")
    cert = certificate_or_raise(g, r + 1)
    colors: dict[tuple[int, int], int] = {}
    for step, built in _backward_steps(g, cert):
        if step.kind == ISOLATED:
            continue
        if step.kind == LEAF:
            (v,) = step.vertices
            attached = [u for u in g.adj[v] if u in built]
            assert len(attached) == 1, "leaf step must attach by exactly one edge"
            colors[normalize_edge(v, attached[0])] = 1
        else:  # EAR: r+1 colors cyclically along the recorded sequence
            seq = step.vertices
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

    for step, built in _backward_steps(g, cert):
        if step.kind == ISOLATED:
            continue
        if step.kind == LEAF:
            (v,) = step.vertices
            attached = [u for u in g.adj[v] if u in built]
            assert len(attached) == 1
            assign(normalize_edge(v, attached[0]), _smallest_missing(at[attached[0]], limit))
            continue
        seq = step.vertices
        k = len(seq) - 1                      # ear length, >= r+1
        edges = [normalize_edge(a, b) for a, b in zip(seq, seq[1:])]
        alpha = _smallest_missing(at[seq[0]], limit)
        assign(edges[0], alpha)
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


def verify_proper(g: Graph, coloring: EdgeColoring) -> bool:
    """True iff no two edges sharing a vertex share a color.  Raises on a
    coloring that does not cover every edge of g."""
    if set(coloring.colors) != set(g.edges):
        raise ValueError("coloring is not a total mapping on the graph's edges")
    for v in range(g.n):
        seen = set()
        for u in g.adj[v]:
            c = coloring.of(v, u)
            if c in seen:
                return False
            seen.add(c)
    return True


def verify_cycle_rainbow(g: Graph, coloring: EdgeColoring, t: int, cap: int = 100_000) -> bool:
    """True iff every simple cycle C carries >= min(|C|, t) distinct
    colors.  Cycle enumeration is capped; CycleCapExceeded propagates."""
    if set(coloring.colors) != set(g.edges):
        raise ValueError("coloring is not a total mapping on the graph's edges")
    for cyc in enumerate_cycles(g, cap):
        distinct = {coloring.of(a, b) for a, b in zip(cyc, cyc[1:] + (cyc[0],))}
        if len(distinct) < min(len(cyc), t):
            return False
    return True
