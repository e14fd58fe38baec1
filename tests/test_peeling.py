"""The peeling engine against the whole-graph scan in `scan_oracle`: every
greedy certificate step must be the step the scan picks on the graph
left by the steps before it.  The exact-ear certificate, a rewrite of
that run, must replay with ears of length exactly p and leave the same
vertices."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdeg import build_graph, complete, cycle, fixture, subdivide
from pathdeg.graph import chain_graph, induced_subgraph
from pathdeg.reduction import (
    ReductionSequence,
    exact_ear_certificate,
    find_p_reduction,
    greedy_reduce,
    is_p_path_degenerate,
    replay_certificate,
)

from conftest import spoked_wheel
from peel_oracle import _work_adj
from replay_oracle import _delete_vertices, _step_error
from scan_oracle import _find_step


def assert_matches_scan(g, p):
    cert, residual = greedy_reduce(g, p)
    assert find_p_reduction(g, p) == (cert.steps[0] if cert.steps else None)
    adj = _work_adj(g)
    for step in cert.steps:
        assert step == _find_step(adj, p)
        _delete_vertices(adj, step.deleted)
    assert _find_step(adj, p) is None
    assert residual == induced_subgraph(g, adj)


def assert_exact_rewrite(g, p):
    """The exact-ear certificate replays with exact_ears=True, leaves the
    plain run's witness_vertices, and starts with the plain run's first
    step after the rewrite."""
    plain = is_p_path_degenerate(g, p)
    cert = exact_ear_certificate(greedy_reduce(g, p)[0])
    assert cert.exact_ears
    first = find_p_reduction(g, p)
    assert exact_ear_certificate(ReductionSequence(p, (first,) if first else ())).steps[:1] == cert.steps[:1]
    adj = _work_adj(g)
    for step in cert.steps:
        assert _step_error(adj, step, p, True) is None, step
        _delete_vertices(adj, step.deleted)
    assert tuple(sorted(adj)) == plain.witness_vertices
    if plain.degenerate:
        exact = exact_ear_certificate(plain.certificate)
        assert exact == cert
        replay_certificate(g, exact)


def assert_greedy(g, p, exact):
    (assert_exact_rewrite if exact else assert_matches_scan)(g, p)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("p", [2, 3, 4])
def test_corpus(exhaustive_corpus, p, exact):
    for g in exhaustive_corpus:
        assert_greedy(g, p, exact)


@pytest.mark.parametrize("name", ["dodecahedron", "petersen", "heawood", "tutte-coxeter"])
def test_subdivided_fixtures(name):
    for k in range(6):
        g = subdivide(fixture(name), k)
        for p in range(2, 8):
            for exact in (False, True):
                assert_greedy(g, p, exact)


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
                    assert_greedy(h, p, exact)


def disjoint_union(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(n + u, n + v) for u, v in g.edges]
        n += g.n
    return build_graph(n, edges)


# Graphs, for a given p, on which a step detaches its survivors in the
# ways the engine's bookkeeping must follow.
ATTACHMENTS = {
    # the loop at 0 loses an ear; what is left of it peels back to 0,
    # which becomes a leaf and peels its bar into 1 (degree 3 -> 2)
    "loop-at-degree-3": lambda p: chain_graph(2, [(0, 0, p + 2), (0, 1, 3), (1, 1, p + 1)]),
    "loop-on-theta": lambda p: chain_graph(3, [(0, 0, p + 1), (0, 1, 2), (1, 2, 1), (1, 2, p), (1, 2, p + 1)]),
    # isolated vertices and K2s (two leaves that detach from each other)
    "k1-k2-beside-cycles": lambda p: disjoint_union(build_graph(1, []), complete(2), cycle(p + 2),
                                                      complete(2), cycle(p + 1), build_graph(1, [])),
    # a cycle of length p+1, or a loop of that length at a branch vertex,
    # goes by one ear of length p whose two ends are adjacent
    "ear-ends-adjacent": lambda p: disjoint_union(cycle(p + 1), chain_graph(1, [(0, 0, p + 1), (0, 0, p + 1)])),
}


@pytest.mark.parametrize("name", sorted(ATTACHMENTS))
def test_attachment_cases(name):
    for p in range(2, 7):
        g = ATTACHMENTS[name](p)
        perm = list(range(g.n))
        random.Random(p).shuffle(perm)
        for h in (g, build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])):
            for exact in (False, True):
                assert_greedy(h, p, exact)


def test_cycles():
    for n in range(3, 14):
        for p in range(2, n + 2):
            for exact in (False, True):
                assert_greedy(cycle(n), p, exact)


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
    assert_greedy(g, p, exact)


@st.composite
def dense_graphs(draw, max_n=12):
    """G(n, 1/2): each pair of n <= max_n vertices is an edge by a coin flip."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    coins = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, coin in zip(pairs, coins) if coin])


@st.composite
def disjoint_unions(draw):
    """Two to four G(n, 1/2) components on at most 12 vertices in all,
    relabeled by a random permutation."""
    parts = [draw(dense_graphs(max_n=6)) for _ in range(draw(st.integers(2, 4)))]
    while sum(g.n for g in parts) > 12:
        parts.pop()
    g = disjoint_union(*parts)
    perm = draw(st.permutations(range(g.n)))
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dense_graphs(), st.integers(2, 6), st.booleans())
def test_dense_random_graphs(g, p, exact):
    assert_greedy(g, p, exact)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(disjoint_unions(), st.integers(2, 6), st.booleans())
def test_disjoint_unions(g, p, exact):
    assert_greedy(g, p, exact)


@st.composite
def chain_multigraphs(draw):
    """Up to four branch vertices joined by up to six chains of 1-6 edges,
    loops and parallel chains included, relabeled by a random
    permutation: merges, loops that close into cycles and chains whose
    ends fall to degree 2 come up often.  A pair holds at most one chain
    of length 1, as chain_graph requires."""
    k = draw(st.integers(1, 4))
    links = []
    direct = set()
    for _ in range(draw(st.integers(1, 6))):
        u, v = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        length = draw(st.integers(3 if u == v else 2 if (u, v) in direct else 1, 6))
        if length == 1:
            direct |= {(u, v), (v, u)}
        links.append((u, v, length))
    g = chain_graph(k, links)
    perm = draw(st.permutations(range(g.n)))
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(chain_multigraphs(), st.integers(2, 6), st.booleans())
def test_chain_multigraphs(g, p, exact):
    assert_greedy(g, p, exact)
