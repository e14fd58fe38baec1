"""The certificate pipeline, both colorings and their verifiers, and mad
on a subdivided random cubic graph of about 20k vertices, and girth and
cycle enumeration on a subdivided dodecahedron of 3020 vertices, and
the reduction of an 8001-vertex wheel with subdivided spokes, and the
acyclic coloring of a windmill of 8000 loops at one hub.  A reduction
engine that rescans the graph on every step takes minutes on the first,
and a cycle-rainbow check that lists cycles runs past any cycle cap
there; girth with one BFS per vertex takes seconds on the second.  On
the wheel the rim chain grows by one merge per spoke, the engine's
quadratic worst case.  A coloring that scans the hub's palette for each
loop takes about 18 s on the windmill."""

import random
from fractions import Fraction

from pathdeg import fixture, subdivide
from pathdeg.colorings import acyclic_edge_coloring, arboricity_coloring, verify_cycle_rainbow, verify_proper
from pathdeg.density import mad
from pathdeg.graph import chain_graph, enumerate_cycles, girth
from pathdeg.reduction import is_p_path_degenerate, replay_certificate
from pathdeg.wcol import WcolBoundParams, weak_order, wreach_all, wreach_bound_ok

from conftest import random_cubic, spoked_wheel


def test_subdivided_cubic_20k():
    g = subdivide(random_cubic(3636, random.Random(20260808)), 3)
    assert g.n == 19998
    # the whole graph: 2 (3/2)(k+1) / (1 + 3k/2) at k = 3
    assert mad(g) == Fraction(24, 11)

    verdict = is_p_path_degenerate(g, 4)
    assert verdict.degenerate
    replay_certificate(g, verdict.certificate)

    coloring = arboricity_coloring(g, 3)
    assert coloring.num_colors <= 4
    assert verify_cycle_rainbow(g, coloring, t=4)
    coloring = acyclic_edge_coloring(g, 3)
    assert verify_proper(g, coloring)
    assert verify_cycle_rainbow(g, coloring, t=3)

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


def test_wheel_with_subdivided_spokes():
    g = spoked_wheel(2000, 4)
    assert g.n == 8001
    verdict = is_p_path_degenerate(g, 4)
    assert verdict.degenerate
    replay_certificate(g, verdict.certificate)


def test_acyclic_coloring_at_a_hub():
    # every block is a 5-edge loop at vertex 0, so the rainbow check
    # decides each by its color count and tries no color subset
    g = chain_graph(1, [(0, 0, 5)] * 8000)
    assert g.degree(0) == 16_000
    coloring = acyclic_edge_coloring(g, 3)
    assert coloring.num_colors == 16_000
    assert verify_proper(g, coloring)
    assert verify_cycle_rainbow(g, coloring, t=3)
