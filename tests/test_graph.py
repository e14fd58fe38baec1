import math

import pytest
from hypothesis import given, settings, strategies as st

from pathdeg import INFINITE, CycleCapExceeded, build_graph, complete, cycle, fixture, path, subdivide, theta
from pathdeg.graph import (
    count_cycles_via_cycle_space,
    enumerate_cycles,
    enumerate_cycles_bruteforce,
    girth,
    strict_ears,
    suppressed_multigraph,
    walk_chain,
)

from conftest import random_graph


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
        assert g.n == 3 and g.m == 3

    def test_duplicates_collapse(self):
        g = build_graph(2, [(0, 1), (1, 0)])
        assert g.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(1, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(2, [(0, 5)])

    def test_adjacency_symmetric(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        for u, v in g.edges:
            assert v in g.adj[u] and u in g.adj[v]


class TestGirth:
    def test_c7(self):
        assert girth(cycle(7)) == 7

    def test_tree_infinite(self):
        assert girth(path(6)) == INFINITE
        assert math.isinf(girth(build_graph(3, [])))

    def test_fixture_girths(self):
        assert girth(fixture("petersen")) == 5
        assert girth(fixture("heawood")) == 6
        assert girth(fixture("mcgee")) == 7
        assert girth(fixture("tutte-coxeter")) == 8

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_subdivided_dodecahedron(self, k):
        assert girth(subdivide(fixture("dodecahedron"), k)) == 5 * (k + 1)

    @given(st.integers(0, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_subdivision_law(self, k, data):
        n = data.draw(st.integers(1, 7))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
        g = build_graph(n, chosen)
        base = girth(g)
        expected = INFINITE if base == INFINITE else (k + 1) * base
        assert girth(subdivide(g, k)) == expected


class TestSubdivide:
    def test_identity(self):
        g = complete(4)
        assert subdivide(g, 0) is g

    def test_triangle_once_is_c6(self):
        g = subdivide(cycle(3), 1)
        assert g.n == 6 and g.m == 6 and girth(g) == 6
        assert all(d == 2 for d in g.degrees())

    def test_counts(self):
        g = complete(4)
        s = subdivide(g, 3)
        assert s.n == g.n + 3 * g.m and s.m == 4 * g.m

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            subdivide(cycle(3), -1)


class TestStrictEars:
    def test_pure_cycle_has_no_maximal_ear(self):
        assert strict_ears(cycle(5)) == []

    def test_subdivided_k4(self):
        ears = strict_ears(subdivide(complete(4), 2))
        assert len(ears) == 6
        assert all(e.length == 3 for e in ears)
        assert {frozenset(e.endpoints) for e in ears} == {
            frozenset(p) for p in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        }

    def test_star_empty(self):
        assert strict_ears(build_graph(4, [(0, 1), (0, 2), (0, 3)])) == []

    def test_path_is_one_ear(self):
        (ear,) = strict_ears(path(4))
        assert ear.vertices == (0, 1, 2, 3)

    def test_interior_deletion_drops_length_edges(self, rng):
        for _ in range(30):
            g = random_graph(rng, rng.randint(3, 9), 0.35)
            for ear in strict_ears(g):
                keep = set(range(g.n)) - set(ear.interior)
                remaining = sum(1 for u, v in g.edges if u in keep and v in keep)
                assert g.m - remaining == ear.length


def _both_adjacencies(g):
    return g.adj, {v: set(g.adj[v]) for v in range(g.n)}


class TestWalkChain:
    def test_open_chain_stops_at_other_degree(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (0, 4), (0, 5)])
        for adj in _both_adjacencies(g):
            assert walk_chain(adj, 0, 1) == [1, 2, 3]
            assert walk_chain(adj, 3, 2) == [2, 1, 0]
            assert walk_chain(adj, 1, 0) == [0]

    def test_loop_at_branch_vertex_ends_at_it(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        for adj in _both_adjacencies(g):
            assert walk_chain(adj, 0, 1) == [1, 2, 3, 0]
            assert walk_chain(adj, 0, 3) == [3, 2, 1, 0]

    def test_cycle_component_closes_at_start(self):
        g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 5)])
        for adj in _both_adjacencies(g):
            assert walk_chain(adj, 0, 1) == [1, 2, 3, 4, 0]
            assert walk_chain(adj, 2, 1) == [1, 0, 4, 3, 2]
            assert walk_chain(adj, 5, 7) == [7, 6, 5]


class TestEnumerateCycles:
    def test_tree_empty(self):
        assert enumerate_cycles(path(5), 10) == []

    def test_c6_single(self):
        assert enumerate_cycles(cycle(6), 10) == [(0, 1, 2, 3, 4, 5)]

    def test_k4_seven(self):
        cycles = enumerate_cycles(complete(4), 100)
        assert len(cycles) == 7
        assert len([c for c in cycles if len(c) == 3]) == 4
        assert len([c for c in cycles if len(c) == 4]) == 3

    def test_cap_exceeded(self):
        with pytest.raises(CycleCapExceeded):
            enumerate_cycles(complete(5), 3)

    def test_matches_bruteforce_small(self, rng):
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 7), 0.45)
            assert enumerate_cycles(g, 10_000) == enumerate_cycles_bruteforce(g)

    def test_matches_cycle_space_counts(self):
        for g in (fixture("petersen"), fixture("k33"), fixture("prism"), theta(2, 3, 3)):
            assert len(enumerate_cycles(g, 10_000)) == count_cycles_via_cycle_space(g)

    def test_dodecahedron_count(self):
        d = fixture("dodecahedron")
        cycles = enumerate_cycles(d, 10_000)
        assert len(cycles) == count_cycles_via_cycle_space(d) == 1168
        assert len([c for c in cycles if len(c) == 5]) == 12  # the faces


class TestSuppression:
    def test_subdivision_smooths_back(self):
        branch, links = suppressed_multigraph(subdivide(complete(4), 2))
        assert branch == [0, 1, 2, 3]
        assert len(links) == 6 and all(l == 3 for _, _, l in links)

    def test_pure_cycle_component(self):
        branch, links = suppressed_multigraph(cycle(6))
        assert branch == [] and links == [("cycle", "cycle", 6)]

    def test_theta_parallel_chains(self):
        _, links = suppressed_multigraph(theta(2, 2, 2))
        assert len(links) == 3
        assert all({u, v} == {0, 1} and l == 2 for u, v, l in links)

    def test_lengths_sum_to_edge_count(self, exhaustive_corpus, corpus):
        subdivided = [subdivide(g, k) for g in corpus.values() for k in (1, 2, 5)]
        for g in [*exhaustive_corpus, *subdivided]:
            _, links = suppressed_multigraph(g)
            assert sum(length for _, _, length in links) == g.m
