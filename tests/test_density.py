from fractions import Fraction

import pytest
from hypothesis import given, settings

from pathdeg import build_graph, complete, cycle, fixture, path, subdivide, theta
from pathdeg.density import (
    StateCapExceeded,
    _minor_edge_sets,
    mad,
    max_subgraph_density,
    max_subgraph_density_bruteforce,
    nabla_r_bruteforce,
)

from conftest import random_graph, star, trees_and_subdivisions
from density_oracle import max_subgraph_density_per_vertex

HALF = Fraction(1, 2)


class TestMaxSubgraphDensity:
    def test_cycle_is_one(self):
        for n in (3, 6, 11):
            assert max_subgraph_density(cycle(n)) == 1

    def test_k4(self):
        assert max_subgraph_density(complete(4)) == Fraction(3, 2)

    def test_k4_plus_pendant(self):
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
        assert max_subgraph_density(g) == Fraction(3, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            max_subgraph_density(build_graph(0, []))

    def test_matches_bruteforce(self, rng):
        for _ in range(80):
            g = random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.7))
            assert max_subgraph_density(g) == max_subgraph_density_bruteforce(g)

    def test_result_is_achieved_density(self):
        g = fixture("petersen")
        d = max_subgraph_density(g)
        assert d == Fraction(15, 10)


class TestMad:
    def test_regular_graphs(self):
        assert mad(fixture("petersen")) == 3
        assert mad(fixture("heawood")) == 3

    def test_tree(self):
        for n in (2, 5, 9):
            assert mad(path(n)) == Fraction(2 * (n - 1), n)

    def test_edgeless_and_empty(self):
        assert mad(build_graph(4, [])) == 0
        assert mad(build_graph(0, [])) == 0

    def test_long_path_has_no_recursion_limit(self):
        # the shortest path whose augmenting paths outgrew a recursive search
        assert mad(path(1983)) == Fraction(2 * 1982, 1983)


def _disjoint(*graphs):
    """Disjoint union; each graph's vertices are numbered after the last."""
    edges, n = [], 0
    for h in graphs:
        edges += [(u + n, v + n) for u, v in h.edges]
        n += h.n
    return build_graph(n, edges)


def _ladder(n):
    """The 2 x n grid: two paths of n vertices joined rung by rung."""
    rails = [(i, i + 1) for i in range(n - 1)] + [(n + i, n + i + 1) for i in range(n - 1)]
    return build_graph(2 * n, rails + [(i, n + i) for i in range(n)])


def _walk(*vertices):
    return list(zip(vertices, vertices[1:]))


BOWTIE = _walk(0, 1, 2, 0, 3, 4, 0)
# three chains of length 5 from the bowtie's centre 0 to vertex 5
BOWTIE_CHAINS = BOWTIE + _walk(0, 6, 7, 8, 9, 5) + _walk(0, 10, 11, 12, 13, 5) + _walk(0, 14, 15, 16, 17, 5)
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

FIXED = {
    "forest of unequal trees": (_disjoint(path(3), star(5), path(2)), Fraction(5, 6)),
    "tree larger than a cycle": (_disjoint(cycle(4), path(8)), Fraction(1)),
    "k4 beside a long cycle": (_disjoint(complete(4), cycle(8)), Fraction(3, 2)),
    "bowtie": (build_graph(5, BOWTIE), Fraction(6, 5)),
    "bowtie with three long chains": (build_graph(18, BOWTIE_CHAINS), Fraction(6, 5)),
    "theta 1,2,2,7": (theta(1, 2, 2, 7), Fraction(5, 4)),
    "theta 2,3,4": (theta(2, 3, 4), Fraction(9, 8)),
    "chains of length 1 and 5 between one pair": (build_graph(8, K4 + _walk(0, 4, 5, 6, 7, 1)), Fraction(3, 2)),
    "k4 with a long pendant path": (build_graph(24, K4 + _walk(*range(3, 24))), Fraction(3, 2)),
}


class TestAgreesWithPerVertexNetwork:
    """max_subgraph_density, on the 2-core's branch vertices, against the
    per-vertex network of tests/density_oracle.py and brute force."""

    @pytest.mark.parametrize("name", sorted(FIXED))
    def test_fixed_cases(self, name):
        g, expected = FIXED[name]
        assert max_subgraph_density(g) == expected
        assert max_subgraph_density_per_vertex(g) == expected
        if g.n <= 12:
            assert max_subgraph_density_bruteforce(g) == expected

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(trees_and_subdivisions(max_n=30))
    def test_subdivided_graphs_with_pendant_trees(self, g):
        assert max_subgraph_density(g) == max_subgraph_density_per_vertex(g)

    def test_random_graphs(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(10, 40), rng.uniform(0.05, 0.3))
            assert max_subgraph_density(g) == max_subgraph_density_per_vertex(g)


class TestMadAtScale:
    def test_ladder(self):
        # 2n vertices and 3n - 2 edges; a long network for the augmenting paths
        n = 1000
        assert mad(_ladder(n)) == Fraction(2 * (3 * n - 2), 2 * n)

    def test_long_path(self):
        assert mad(path(20000)) == Fraction(2 * 19999, 20000)


class TestNabla:
    def test_depth0_is_subgraph_density(self):
        assert nabla_r_bruteforce(complete(4), 0) == Fraction(3, 2)
        for g in (cycle(5), fixture("prism"), path(4)):
            assert nabla_r_bruteforce(g, 0) == max_subgraph_density(g)

    def test_c6_depth1(self):
        assert nabla_r_bruteforce(cycle(6), 1) == 1

    def test_monotone_in_depth(self):
        for g in (complete(4), cycle(6), fixture("k33")):
            v0 = nabla_r_bruteforce(g, 0)
            vh = nabla_r_bruteforce(g, HALF)
            v1 = nabla_r_bruteforce(g, 1)
            assert v0 <= vh <= v1

    @pytest.mark.parametrize("r", [0, HALF, 1])
    @pytest.mark.parametrize("name", ["k4", "prism", "k33"])
    def test_cubic_cap(self, r, name):
        value = nabla_r_bruteforce(fixture(name), r)
        assert float(value) <= 3 * 2 ** (float(r) - 1) + 1e-12

    def test_cubic_cap_petersen_depth0(self):
        assert nabla_r_bruteforce(fixture("petersen"), 0) == Fraction(3, 2)

    def test_state_cap_signal(self):
        with pytest.raises(StateCapExceeded):
            nabla_r_bruteforce(fixture("petersen"), 1, cap=50)

    def test_non_half_integer_rejected(self):
        with pytest.raises(ValueError):
            nabla_r_bruteforce(complete(4), Fraction(1, 3))

    @pytest.mark.parametrize("r", [-1, -HALF])
    def test_negative_depth_rejected(self, r):
        with pytest.raises(ValueError, match="^r must be a nonnegative half-integer$"):
            nabla_r_bruteforce(complete(4), r)


class TestCompositionInequality:
    @pytest.mark.parametrize("a,b,c", [(HALF, HALF, Fraction(3, 2)), (0, 1, 1), (1, 0, 1)])
    def test_nested_minors_stay_below_nabla_c(self, a, b, c):
        # (2c+1) >= (2a+1)(2b+1) in all three parameter triples.  Every
        # depth-a minor h of g is a spanning subgraph of a maximal one,
        # and h's depth-b minors are subgraphs of that one's, so the
        # maximal minors bound every nested density
        assert (2 * c + 1) >= (2 * a + 1) * (2 * b + 1)
        for g in (complete(4), cycle(5)):
            outer = nabla_r_bruteforce(g, c)
            for k, edges in _minor_edge_sets(g, a, cap=500_000):
                assert nabla_r_bruteforce(build_graph(k, edges), b, cap=500_000) <= outer


class TestSubdivisionTransfer:
    """Contracting the subdivision chains turns a depth-r minor of the
    subdivision into a depth-ceil(r/(p-1)) minor of the base, except for
    partial-chain leftovers, which are paths of density below 1.  The
    bound is therefore exact on minimum-degree-3 bases and capped at 1 in
    general (a two-edge path subdivided once has density 4/5 > 2/3, so
    the uncapped form is false for sparse bases)."""

    def test_exact_on_cubic_bases(self):
        cases = [("k4", 3), ("k4", 4), ("k33", 3), ("prism", 3)]
        for name, p in cases:
            g = fixture(name)
            sub = subdivide(g, p - 2)
            assert nabla_r_bruteforce(sub, 0, cap=2_000_000) <= nabla_r_bruteforce(g, 0)

    def test_fifty_random_tiny_instances(self, rng):
        checked = 0
        while checked < 50:
            if checked < 35:
                n = rng.randint(2, 5)
                g = random_graph(rng, n, 0.5)
                p = rng.choice([3, 4])
                r = 0
                if g.m > (4 if p == 3 else 3):
                    continue
            else:
                n = rng.randint(2, 4)
                g = random_graph(rng, n, 0.6)
                if g.m > 4:
                    continue
                p = 3
                r = rng.choice([HALF, 1])
            if g.m == 0:
                continue
            sub = subdivide(g, p - 2)
            depth = -(-Fraction(r) // (p - 1))  # ceil(r / (p-1))
            lhs = nabla_r_bruteforce(sub, r)
            rhs = max(Fraction(1), nabla_r_bruteforce(g, depth))
            assert lhs <= rhs, (sorted(g.edges), p, r)
            checked += 1
