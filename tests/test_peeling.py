"""The peeling engine against the whole-graph scan in `scan_oracle`: every
greedy certificate step must be the step the scan picks on the graph
left by the steps before it."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdeg import build_graph, cycle, fixture, subdivide
from pathdeg.graph import induced_subgraph
from pathdeg.reduction import _delete_vertices, _work_adj, find_p_reduction, greedy_reduce

from conftest import spoked_wheel
from scan_oracle import _find_step


def assert_matches_scan(g, p, exact):
    cert, residual = greedy_reduce(g, p, exact_ears=exact)
    assert find_p_reduction(g, p, exact_ears=exact) == (cert.steps[0] if cert.steps else None)
    adj = _work_adj(g)
    for step in cert.steps:
        assert step == _find_step(adj, p, exact)
        _delete_vertices(adj, step.deleted)
    assert _find_step(adj, p, exact) is None
    assert residual == induced_subgraph(g, adj)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_corpus(exhaustive_corpus, p, exact):
    for g in exhaustive_corpus:
        assert_matches_scan(g, p, exact)


@pytest.mark.parametrize("name", ["dodecahedron", "petersen", "heawood", "tutte-coxeter"])
def test_subdivided_fixtures(name):
    for k in range(6):
        g = subdivide(fixture(name), k)
        for p in range(2, 8):
            for exact in (False, True):
                assert_matches_scan(g, p, exact)


@pytest.mark.parametrize("length", [1, 2, 4])
def test_wheels_with_subdivided_spokes(length):
    rng = random.Random(length)
    for spokes in range(3, 21):
        g = spoked_wheel(spokes, length)
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])):
            for p in range(2, 6):
                for exact in (False, True):
                    assert_matches_scan(h, p, exact)


def test_cycles():
    for n in range(3, 14):
        for p in range(2, n + 2):
            for exact in (False, True):
                assert_matches_scan(cycle(n), p, exact)


@st.composite
def sparse_graphs(draw):
    """A random tree plus a few extra edges, subdivided 0-3 times and
    relabeled by a random permutation."""
    n = draw(st.integers(1, 12))
    edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges += [(a, b) for a, b in extra if a != b]
    g = subdivide(build_graph(n, edges), draw(st.integers(0, 3)))
    perm = draw(st.permutations(range(g.n)))
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_graphs(), st.integers(2, 6), st.booleans())
def test_random_sparse_graphs(g, p, exact):
    assert_matches_scan(g, p, exact)
