"""The certificate pipeline on a subdivided random cubic graph of about
20k vertices, and girth and cycle enumeration on a subdivided
dodecahedron of 3020 vertices.  A reduction engine that rescans the graph
on every step takes minutes on the first; girth with one BFS per vertex,
or a cycle search that steps through every subdivision vertex, takes
seconds on the second."""

import random

from pathdeg import build_graph, fixture, subdivide
from pathdeg.colorings import acyclic_edge_coloring, arboricity_coloring, verify_proper
from pathdeg.graph import enumerate_cycles, girth
from pathdeg.reduction import is_p_path_degenerate, replay_certificate
from pathdeg.wcol import WcolBoundParams, weak_order, wreach_all, wreach_bound_ok


def random_cubic(n, rng):
    """Pairing model, retried until the multigraph is simple."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return build_graph(n, edges)


def test_subdivided_cubic_20k():
    g = subdivide(random_cubic(3636, random.Random(20260808)), 3)
    assert g.n == 19998

    verdict = is_p_path_degenerate(g, 4)
    assert verdict.degenerate
    replay_certificate(g, verdict.certificate)

    assert arboricity_coloring(g, 3).num_colors <= 4
    coloring = acyclic_edge_coloring(g, 3)
    assert verify_proper(g, coloring)

    params = WcolBoundParams(r=1, q=2)
    order = weak_order(g, params)
    assert len(order) == g.n
    for x in (0, 1):
        worst = max(len(s) for s in wreach_all(g, order, x))
        assert wreach_bound_ok(worst, x, params)


def test_subdivided_dodecahedron_girth_and_cycles():
    g = subdivide(fixture("dodecahedron"), 100)
    assert g.n == 3020
    assert girth(g) == 505
    assert len(enumerate_cycles(g, 10_000)) == 1168
