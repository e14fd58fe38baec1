import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from pathdeg import INFINITE, CycleCapExceeded, build_graph, complete, cycle, fixture, path, subdivide, theta
from pathdeg.graph import (
    blocks,
    chain_graph,
    connected_components,
    count_cycles_via_cycle_space,
    enumerate_cycles,
    enumerate_cycles_bruteforce,
    girth,
    strict_ears,
    suppressed_multigraph,
    walk_chain,
)

from conftest import random_graph, trees_and_subdivisions


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


@st.composite
def _plus_cycle_component(draw, max_n):
    """A graph from trees_and_subdivisions beside a disjoint cycle on 3
    to 6 vertices, relabeled together; the cycle is often the shortest."""
    length = draw(st.integers(3, 6))
    g = draw(trees_and_subdivisions(max_n - length))
    ring = [(g.n + i, g.n + (i + 1) % length) for i in range(length)]
    perm = draw(st.permutations(range(g.n + length)))
    return build_graph(g.n + length, [(perm[u], perm[v]) for u, v in [*g.edges, *ring]])


def _canonical(cyc):
    """Cycle rotated to its smallest vertex, smaller neighbour second."""
    i = cyc.index(min(cyc))
    c = tuple(cyc[i:]) + tuple(cyc[:i])
    return c if c[1] < c[-1] else (c[0], *reversed(c[1:]))


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(trees_and_subdivisions(max_n=7))
    def test_matches_bruteforce_shortest_cycle(self, g):
        lengths = [len(c) for c in enumerate_cycles_bruteforce(g)]
        assert girth(g) == min(lengths, default=INFINITE)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(trees_and_subdivisions(max_n=40), _plus_cycle_component(max_n=40)))
    def test_matches_networkx(self, g):
        nx = pytest.importorskip("networkx")
        h = nx.Graph(list(g.edges))
        h.add_nodes_from(range(g.n))
        assert girth(g) == nx.girth(h)

    @pytest.mark.parametrize("k", [1, 3])
    def test_cycle_component_shorter_than_branch_part(self, k):
        # subdivided K4 has girth 3(k+1); the ring beside it is shorter
        base = subdivide(complete(4), k)
        for length in range(3, 3 * (k + 1)):
            ring = [(base.n + i, base.n + (i + 1) % length) for i in range(length)]
            g = build_graph(base.n + length, [*base.edges, *ring])
            assert girth(g) == length


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

    def test_loops_are_not_ears(self):
        # K4 on 0..3, plus a loop of length 3 at vertex 0
        g = build_graph(6, [*complete(4).edges, (0, 4), (4, 5), (5, 0)])
        assert strict_ears(g) == []

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

    def test_long_cycle_has_no_recursion_limit(self):
        assert enumerate_cycles(cycle(3000), 1) == [tuple(range(3000))]

    def test_k8_with_long_pendant_path(self):
        # the path is outside the 2-core; K8 has sum C(8,k)(k-1)!/2 cycles
        g = build_graph(308, [*complete(8).edges, *((7 + i, 8 + i) for i in range(300))])
        assert len(enumerate_cycles(g, 10_000)) == 8018

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(trees_and_subdivisions(max_n=7))
    def test_matches_bruteforce_with_trees_and_subdivisions(self, g):
        assert enumerate_cycles(g, 10_000) == enumerate_cycles_bruteforce(g)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(trees_and_subdivisions(max_n=40))
    def test_count_matches_cycle_space_with_trees_and_subdivisions(self, g):
        assume(g.m - g.n + len(connected_components(g)) <= 12)
        assert len(enumerate_cycles(g, 10_000)) == count_cycles_via_cycle_space(g)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(trees_and_subdivisions(max_n=40), _plus_cycle_component(max_n=40)))
    def test_matches_networkx_simple_cycles(self, g):
        nx = pytest.importorskip("networkx")
        expected = sorted(_canonical(c) for c in nx.simple_cycles(nx.Graph(list(g.edges))))
        assert enumerate_cycles(g, 100_000) == expected

    def test_theta_parallel_chains(self):
        # chains 0-2-1, 0-3-4-1 and 0-5-6-7-8-1 between the hubs 0 and 1
        assert enumerate_cycles(theta(2, 3, 5), 10) == [
            (0, 2, 1, 4, 3), (0, 2, 1, 8, 7, 6, 5), (0, 3, 4, 1, 8, 7, 6, 5)]

    def test_cycle_hanging_at_branch_vertex(self):
        # K4 on 2..5 and the cycle 5-1-0-6-5, a chain from 5 back to itself
        g = build_graph(7, [*((u + 2, v + 2) for u, v in complete(4).edges), (5, 1), (1, 0), (0, 6), (6, 5)])
        expected = [(0, 1, 5, 6), (2, 3, 4), (2, 3, 4, 5), (2, 3, 5), (2, 3, 5, 4), (2, 4, 3, 5), (2, 4, 5), (3, 4, 5)]
        assert enumerate_cycles(g, 10) == expected == enumerate_cycles_bruteforce(g)

    def test_shuffled_subdivided_k4(self):
        # interior vertices take the small labels, so most cycles start
        # inside a chain rather than at a branch vertex
        g = subdivide(complete(4), 2)
        perm = [*range(12, 16), *[11, 0, 7, 2, 9, 4, 1, 6, 3, 10, 5, 8]]
        shuffled = build_graph(16, [(perm[u], perm[v]) for u, v in g.edges])
        expected = sorted(_canonical([perm[v] for v in c]) for c in enumerate_cycles(g, 10))
        assert len(expected) == 7 and all(c[0] < 12 for c in expected)
        assert enumerate_cycles(shuffled, 10) == expected

    def test_cap_counts_cycle_components_and_loops(self):
        two_rings = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        bowtie = build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        for g in (two_rings, bowtie):
            assert len(enumerate_cycles(g, 2)) == 2
            with pytest.raises(CycleCapExceeded):
                enumerate_cycles(g, 1)

    def test_cap_boundary_on_subdivided_dodecahedron(self):
        g = subdivide(fixture("dodecahedron"), 100)
        assert len(enumerate_cycles(g, 1168)) == 1168
        with pytest.raises(CycleCapExceeded):
            enumerate_cycles(g, 1167)


def _block_sets(block_list):
    return sorted(sorted(b) for b in block_list)


class TestBlocks:
    def test_bowtie_path_and_bridge(self):
        g = build_graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5), (5, 6)])
        assert _block_sets(blocks(g.edges)) == [
            [(0, 1), (0, 2), (1, 2)], [(2, 3), (2, 4), (3, 4)], [(4, 5)], [(5, 6)]]

    def test_edges_are_sorted_pairs_and_partitioned(self):
        g = subdivide(fixture("petersen"), 2)
        found = [e for b in blocks(g.edges) for e in b]
        assert sorted(found) == sorted(g.edges)

    def test_two_blocks_through_the_dfs_root(self):
        # the search starts at 0, the cut vertex of two 4-cycles
        assert _block_sets(blocks([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])) == [
            [(0, 1), (0, 3), (1, 2), (2, 3)], [(0, 4), (0, 6), (4, 5), (5, 6)]]

    def test_empty(self):
        assert blocks([]) == []

    def test_long_cycle_has_no_recursion_limit(self):
        assert _block_sets(blocks(cycle(3000).edges)) == [sorted(cycle(3000).edges)]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(trees_and_subdivisions(max_n=40), _plus_cycle_component(max_n=40)))
    def test_matches_networkx(self, g):
        nx = pytest.importorskip("networkx")
        h = nx.Graph(list(g.edges))
        expected = _block_sets([[tuple(sorted(e)) for e in b] for b in nx.biconnected_component_edges(h)])
        assert _block_sets(blocks(g.edges)) == expected


def _suppress(g):
    """Branch vertices and (u, v, length) links of g's chains."""
    branch = [v for v in range(g.n) if g.degree(v) != 2]
    return branch, [(c[0], c[-1], len(c) - 1) for c in suppressed_multigraph(g.adj, branch)]


class TestSuppression:
    def test_subdivision_smooths_back(self):
        branch, links = _suppress(subdivide(complete(4), 2))
        assert branch == [0, 1, 2, 3]
        assert len(links) == 6 and all(l == 3 for _, _, l in links)

    def test_pure_cycle_component(self):
        assert _suppress(cycle(6)) == ([], [])

    def test_theta_parallel_chains(self):
        _, links = _suppress(theta(2, 2, 2))
        assert len(links) == 3
        assert all({u, v} == {0, 1} and l == 2 for u, v, l in links)

    def test_branch_edges_and_loops(self):
        # K4 on 0..3, plus loops of length 3 and 4 at vertex 0
        g = build_graph(9, [*complete(4).edges, (0, 4), (4, 5), (5, 0), (0, 6), (6, 7), (7, 8), (8, 0)])
        _, links = _suppress(g)
        assert sorted(links) == sorted([*((u, v, 1) for u, v in complete(4).edges), (0, 0, 3), (0, 0, 4)])

    def test_lengths_sum_to_edge_count(self, exhaustive_corpus, corpus):
        subdivided = [subdivide(g, k) for g in corpus.values() for k in (1, 2, 5)]
        for g in [*exhaustive_corpus, *subdivided]:
            _, links = _suppress(g)
            cycles = [comp for comp in connected_components(g) if all(g.degree(v) == 2 for v in comp)]
            assert sum(length for _, _, length in links) + sum(map(len, cycles)) == g.m

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(trees_and_subdivisions(max_n=40), _plus_cycle_component(max_n=40)))
    def test_chains_partition_the_edges_off_cycle_components(self, g):
        branch, _ = _suppress(g)
        on_chains = []
        for chain in suppressed_multigraph(g.adj, branch):
            assert g.degree(chain[0]) != 2 and g.degree(chain[-1]) != 2
            assert all(g.degree(v) == 2 for v in chain[1:-1])
            assert all(g.has_edge(a, b) for a, b in zip(chain, chain[1:]))
            # walked from the end that comes first in branch order
            assert chain[0] <= chain[-1] if len(chain) > 2 else chain[0] < chain[-1]
            on_chains += [tuple(sorted(e)) for e in zip(chain, chain[1:])]
        cycles = {v for comp in connected_components(g) if all(g.degree(v) == 2 for v in comp) for v in comp}
        assert sorted(on_chains) == sorted(e for e in g.edges if e[0] not in cycles)

    def test_chain_graph_inverts_suppression(self):
        links = [(0, 1, 1), (0, 2, 4), (0, 3, 2), (1, 2, 3), (1, 3, 1), (2, 3, 5), (1, 2, 2), (3, 3, 4)]
        g = chain_graph(4, links)
        assert g.n == 4 + sum(length - 1 for _, _, length in links)
        assert g.m == sum(length for _, _, length in links)
        branch, found = _suppress(g)
        assert branch == [0, 1, 2, 3]
        assert sorted((min(u, v), max(u, v), length) for u, v, length in found) == sorted(links)

    def test_chain_graph_numbers_interiors_in_link_order(self):
        g = chain_graph(2, [(0, 1, 3), (1, 0, 2)])
        assert sorted(g.edges) == [(0, 2), (0, 4), (1, 3), (1, 4), (2, 3)]
