"""Deterministic construction of witness graphs and test fixtures.

Cycles, paths, complete graphs, generalized theta graphs, and a curated
set of named fixtures (dodecahedron, Petersen, the girth-6/7/8 cages, the
prism, K3,3, K4, K5).  A fixture is built from its constructor alone; the
tests pin each one's order, size, regularity and girth.
"""

from __future__ import annotations

from .graph import Graph, build_graph, chain_graph


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def theta(*lengths: int) -> Graph:
    """Generalized theta graph: internally disjoint paths of the given
    lengths joining hub vertices 0 and 1.  Branch interiors are numbered
    branch by branch, so the labeling is reproducible."""
    if len(lengths) < 2:
        raise ValueError("a theta graph needs at least 2 branches")
    if any(l < 1 for l in lengths):
        raise ValueError("branch lengths must be >= 1")
    if sum(1 for l in lengths if l == 1) > 1:
        raise ValueError("at most one branch of length 1 (simple graph)")
    return chain_graph(2, [(0, 1, l) for l in lengths])


def _lcf(n: int, pattern: list[int]) -> Graph:
    """Hamiltonian cycle 0..n-1 plus the chord i -> i + pattern[i % len]."""
    edges = [(i, (i + 1) % n) for i in range(n)]
    for i in range(n):
        edges.append((i, (i + pattern[i % len(pattern)]) % n))
    return build_graph(n, edges)


def _generalized_petersen(n: int, k: int) -> Graph:
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))        # outer cycle
        edges.append((i, n + i))              # spokes
        edges.append((n + i, n + (i + k) % n))  # inner star polygon
    return build_graph(2 * n, edges)


def dodecahedron() -> Graph:
    return _generalized_petersen(10, 2)


def petersen() -> Graph:
    return _generalized_petersen(5, 2)


def heawood() -> Graph:
    # girth-6 cage
    return _lcf(14, [5, -5])


def mcgee() -> Graph:
    # girth-7 cage
    return _lcf(24, [12, 7, -7])


def tutte_coxeter() -> Graph:
    # girth-8 cage
    return _lcf(30, [-13, -9, 7, -7, 9, 13])


def prism() -> Graph:
    return build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                           (0, 3), (1, 4), (2, 5)])


def k33() -> Graph:
    return build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])


_FIXTURES = {
    "dodecahedron": dodecahedron,
    "petersen": petersen,
    "heawood": heawood,
    "mcgee": mcgee,
    "tutte-coxeter": tutte_coxeter,
    "prism": prism,
    "k33": k33,
    "k4": lambda: complete(4),
    "k5": lambda: complete(5),
}


def fixture_names() -> list[str]:
    return sorted(_FIXTURES)


def fixture(name: str) -> Graph:
    key = name.lower().replace("_", "-")
    if key not in _FIXTURES:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
    return _FIXTURES[key]()


def uneven_k4_witness(p: int) -> Graph:
    """K4 with per-edge subdivision counts tuned so the result has girth
    exactly 2p-2 yet admits no p-reduction sequence to the empty graph
    and no subgraph smoothing to a simple graph of minimum degree 3 with
    all chains of length <= p-1.

    One K4 edge is stretched to a chain of length p (reducible); the other
    five chains stay short, with one triangle summing to exactly 2p-2.
    """
    if p < 3:
        raise ValueError("needs p >= 3")
    half = (p - 1) // 2
    return chain_graph(4, [
        (0, 1, p - 1),          # a-b
        (0, 2, half),           # a-c
        (0, 3, half),           # a-d
        (1, 2, p - 1 - half),   # c-b completes the 2p-2 triangle
        (1, 3, p - 1 - half),   # d-b
        (2, 3, p),              # the one reducible chain
    ])
