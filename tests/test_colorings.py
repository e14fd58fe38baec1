import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from pathdeg import build_graph, colorings, complete, cycle, fixture, path, subdivide, theta
from pathdeg.colorings import (
    MAX_COLOR_SUBSETS,
    EdgeColoring,
    _backward_paths,
    acyclic_edge_coloring,
    arboricity_coloring,
    verify_cycle_rainbow,
    verify_proper,
)
from pathdeg.generators import fixture_names
from pathdeg.graph import chain_graph, enumerate_cycles
from pathdeg.reduction import NotPathDegenerate, is_p_path_degenerate

import coloring_oracle
from conftest import chain_graphs, degenerate_subdivisions, random_graph, spoked_wheel, star, trees_and_subdivisions
from cycle_oracle import verify_cycle_rainbow_by_blocks


def _rainbow_by_enumeration(cycles, coloring: EdgeColoring, t: int) -> bool:
    """Oracle: every cycle carries at least min(|C|, t) distinct colors."""
    for cyc in cycles:
        distinct = {coloring.colors[min(a, b), max(a, b)] for a, b in zip(cyc, cyc[1:] + cyc[:1])}
        if len(distinct) < min(len(cyc), t):
            return False
    return True


def _random_coloring(g, rng: random.Random, k: int) -> EdgeColoring:
    return EdgeColoring({e: rng.randint(1, k) for e in sorted(g.edges)})


class TestVerifiers:
    def test_proper_c4_alternating(self):
        g = cycle(4)
        assert verify_proper(g, EdgeColoring({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}))

    def test_improper_triangle(self):
        assert not verify_proper(cycle(3), EdgeColoring({(0, 1): 1, (1, 2): 1, (0, 2): 2}))

    def test_matching_single_color_proper(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert verify_proper(g, EdgeColoring({(0, 1): 1, (2, 3): 1}))

    def test_proper_with_colors_read_from_files(self):
        # a coloring file may hold any integers: negative ones, and ones
        # far too long for a bit mask
        g = cycle(4)
        big = 10 ** 1000
        assert verify_proper(g, EdgeColoring({(0, 1): -1, (1, 2): big, (2, 3): -1, (0, 3): big}))
        assert not verify_proper(g, EdgeColoring({(0, 1): -1, (1, 2): big, (2, 3): big, (0, 3): -2}))

    def test_partial_coloring_rejected(self):
        with pytest.raises(ValueError, match="total"):
            verify_proper(cycle(3), EdgeColoring({(0, 1): 1}))
        with pytest.raises(ValueError, match="total"):
            verify_cycle_rainbow(cycle(3), EdgeColoring({(0, 1): 1}), t=2)

    def test_rainbow_forest_vacuous(self):
        g = path(5)
        colors = {e: 1 for e in g.edges}
        assert verify_cycle_rainbow(g, EdgeColoring(colors), t=9)

    def test_rainbow_c5(self):
        g = cycle(5)
        two = EdgeColoring({(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 4): 2, (0, 4): 1})
        one = EdgeColoring({e: 1 for e in g.edges})
        assert verify_cycle_rainbow(g, two, t=2)
        assert not verify_cycle_rainbow(g, one, t=2)

    def test_threshold_below_two_rejected(self):
        g = cycle(3)
        one = EdgeColoring({e: 1 for e in g.edges})
        for t in (1, 0, -3):
            with pytest.raises(ValueError, match="t must be >= 2"):
                verify_cycle_rainbow(g, one, t=t)

    def test_star_with_distinct_colors(self):
        # every block is a bridge, so no color subset is checked
        g = star(50)
        assert verify_cycle_rainbow(g, EdgeColoring({e: i for i, e in enumerate(sorted(g.edges))}), t=5)

    def test_too_many_color_subsets_refused(self):
        # K8 is one block of 28 colors: C(28, 9) subsets at t = 10
        g = complete(8)
        coloring = EdgeColoring({e: i for i, e in enumerate(sorted(g.edges))})
        with pytest.raises(ValueError, match=f"needs 6906900 color subsets, over the limit of {MAX_COLOR_SUBSETS}"):
            verify_cycle_rainbow(g, coloring, t=10)
        assert verify_cycle_rainbow(g, coloring, t=4)

    def test_loops_are_decided_without_color_subsets(self):
        # two 20-edge loop chains at vertex 0 and a 20-edge cycle component:
        # at t = 10 each is a block of 20 colors, 3 * C(20, 9) subsets in all
        # if loops were counted, but a loop is decided by its color count
        g = chain_graph(2, [(0, 0, 20), (0, 0, 20), (1, 1, 20)])
        rainbow = EdgeColoring({e: i for i, e in enumerate(sorted(g.edges))})
        assert 3 * math.comb(20, 9) > MAX_COLOR_SUBSETS
        assert verify_cycle_rainbow(g, rainbow, t=10)
        component = {1, *range(40, 59)}      # vertex 1 and the third link's interior
        for kept, verdict in ((9, False), (10, True)):
            # the cycle component's 20 edges recolored with `kept` colors
            colors = dict(rainbow.colors)
            for i, e in enumerate(sorted(e for e in g.edges if e[0] in component)):
                colors[e] = i % kept
            assert verify_cycle_rainbow(g, EdgeColoring(colors), t=10) == verdict

    def test_subset_larger_than_threshold_minus_one_not_used(self):
        # the 4-cycle colored 1, 2, 1, 3 sees 3 >= min(4, 3) colors
        g = cycle(4)
        coloring = EdgeColoring({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 3})
        assert verify_cycle_rainbow(g, coloring, t=3)
        assert not verify_cycle_rainbow(g, coloring, t=4)

    def test_blocks_sharing_a_vertex_checked_apart(self):
        # two triangles at vertex 2, each rainbow in the same three colors
        g = build_graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        coloring = EdgeColoring({(0, 1): 1, (1, 2): 2, (0, 2): 3, (2, 3): 1, (3, 4): 2, (2, 4): 3})
        assert verify_cycle_rainbow(g, coloring, t=3)


class TestRainbowAgreesWithEnumeration:
    """verify_cycle_rainbow against the cycle-listing oracle."""

    def test_random_colorings_of_the_corpus(self, exhaustive_corpus):
        rng = random.Random(6)
        verdicts = {True: 0, False: 0}
        for i, g in enumerate(exhaustive_corpus):
            t = 2 + i % 4
            coloring = _random_coloring(g, rng, rng.randint(1, t + 3))
            expected = _rainbow_by_enumeration(enumerate_cycles(g, 10_000), coloring, t)
            assert verify_cycle_rainbow(g, coloring, t) == expected
            verdicts[expected] += 1
        assert min(verdicts.values()) > 1000

    def test_one_edge_mutations_of_built_colorings(self, exhaustive_corpus):
        rng = random.Random(7)
        verdicts = {True: 0, False: 0}
        for g in exhaustive_corpus:
            # a graph that is not p-path degenerate is not (p+1)-path degenerate
            for build, r, t in ((arboricity_coloring, 1, 2), (arboricity_coloring, 2, 3),
                                (acyclic_edge_coloring, 3, 3)):
                if g.m == 0 or not is_p_path_degenerate(g, r + 1).degenerate:
                    break
                coloring = build(g, r)
                cycles = enumerate_cycles(g, 10_000)
                assert verify_cycle_rainbow(g, coloring, t) and _rainbow_by_enumeration(cycles, coloring, t)
                colors = dict(coloring.colors)
                e = rng.choice(sorted(colors))
                colors[e] = rng.choice([c for c in range(1, coloring.num_colors + 2) if c != colors[e]])
                mutant = EdgeColoring(colors)
                expected = _rainbow_by_enumeration(cycles, mutant, t)
                assert verify_cycle_rainbow(g, mutant, t) == expected
                verdicts[expected] += 1
        assert min(verdicts.values()) > 100

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(trees_and_subdivisions(max_n=16), st.integers(2, 5), st.integers(1, 6), st.randoms(use_true_random=False))
    def test_subdivided_graphs_with_pendant_trees(self, g, t, k, rnd):
        coloring = _random_coloring(g, rnd, k)
        assert verify_cycle_rainbow(g, coloring, t) == _rainbow_by_enumeration(enumerate_cycles(g, 10_000), coloring, t)


def _agrees_with_blocks_oracle(g, coloring: EdgeColoring, t: int) -> bool:
    """verify_cycle_rainbow equals the subset-by-blocks check it replaced,
    in its verdict or in the refusal it raises; returns the verdict."""
    try:
        expected = verify_cycle_rainbow_by_blocks(g, coloring, t)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            verify_cycle_rainbow(g, coloring, t)
        return None
    assert verify_cycle_rainbow(g, coloring, t) == expected
    return expected


def _one_edge_mutation(coloring: EdgeColoring, rng: random.Random) -> EdgeColoring:
    colors = dict(coloring.colors)
    e = rng.choice(sorted(colors))
    colors[e] = rng.choice([c for c in range(1, coloring.num_colors + 2) if c != colors[e]])
    return EdgeColoring(colors)


class TestRainbowAgreesWithBlocksOracle:
    """verify_cycle_rainbow on the chain skeleton against the check that
    ran `blocks` over every edge once per color subset."""

    def test_random_colorings_of_the_corpus_and_subdivisions(self, exhaustive_corpus):
        rng = random.Random(21)
        verdicts = {True: 0, False: 0}
        for i, base in enumerate(exhaustive_corpus):
            for k in (0, 1):
                g = subdivide(base, k)
                t = 2 + (i + k) % 4
                verdicts[_agrees_with_blocks_oracle(g, _random_coloring(g, rng, rng.randint(1, t + 2)), t)] += 1
        assert min(verdicts.values()) > 2000

    def test_built_colorings_of_the_corpus_and_subdivisions(self, exhaustive_corpus):
        rng = random.Random(22)
        verdicts = {True: 0, False: 0}
        for i, base in enumerate(exhaustive_corpus[::4]):
            for k in (0, 1):
                g = subdivide(base, k)
                for build, r in ((arboricity_coloring, 1 + i % 4), (acyclic_edge_coloring, 3 + i % 2)):
                    if g.m == 0 or not is_p_path_degenerate(g, r + 1).degenerate:
                        continue
                    coloring = build(g, r)
                    for t in range(2, 6):
                        verdicts[_agrees_with_blocks_oracle(g, coloring, t)] += 1
                        verdicts[_agrees_with_blocks_oracle(g, _one_edge_mutation(coloring, rng), t)] += 1
        assert min(verdicts.values()) > 1000

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chain_graphs(), st.integers(2, 5), st.integers(1, 7), st.randoms(use_true_random=False))
    def test_chain_graphs(self, g, t, k, rnd):
        _agrees_with_blocks_oracle(g, _random_coloring(g, rnd, k), t)

    @pytest.mark.parametrize("k", [3, 6, 12])
    @pytest.mark.parametrize("name", ["dodecahedron", "petersen", "heawood", "mcgee", "tutte-coxeter"])
    def test_cli_fixtures_and_one_edge_mutations(self, name, k):
        rng = random.Random(k)
        g = subdivide(fixture(name), k)
        for coloring, t in ((arboricity_coloring(g, 2), 3), (arboricity_coloring(g, 3), 4),
                            (acyclic_edge_coloring(g, 3), 3)):
            assert _agrees_with_blocks_oracle(g, coloring, t)
            for _ in range(6):
                _agrees_with_blocks_oracle(g, _one_edge_mutation(coloring, rng), t)

    def test_loops_are_not_counted_as_subsets(self):
        # two 20-edge loop chains at vertex 0 and a 20-edge cycle component,
        # 60 distinct colors at t = 10: no block needs a color subset
        g = chain_graph(2, [(0, 0, 20), (0, 0, 20), (1, 1, 20)])
        rainbow = EdgeColoring({e: i for i, e in enumerate(sorted(g.edges))})
        assert _agrees_with_blocks_oracle(g, rainbow, 10) is True
        colors = dict(rainbow.colors)
        component = {1, *range(40, 59)}      # vertex 1 and the third link's interior
        for i, e in enumerate(sorted(e for e in g.edges if e[0] in component)):
            colors[e] = i % 9                 # the cycle component in 9 colors
        assert _agrees_with_blocks_oracle(g, EdgeColoring(colors), 10) is False

    def test_refusal_counts_the_same_subsets(self):
        # K8 with 28 distinct colors at t = 10: C(28, 9) subsets in one block
        g = complete(8)
        coloring = EdgeColoring({e: i + 1 for i, e in enumerate(sorted(g.edges))})
        assert _agrees_with_blocks_oracle(g, coloring, 10) is None


def _outcome(build, g, r):
    """build(g, r).colors, or the type and text of the error it raises."""
    try:
        return build(g, r).colors
    except ValueError as exc:             # NotPathDegenerate included
        return type(exc), str(exc)


def _agrees_with_coloring_oracle(g, rs=range(2, 6)) -> None:
    for r in rs:
        for name in ("arboricity_coloring", "acyclic_edge_coloring"):
            assert _outcome(getattr(colorings, name), g, r) == _outcome(getattr(coloring_oracle, name), g, r)


class TestAgreesWithColoringOracle:
    """Both colorings against the ones they replaced, which kept a set of
    built vertices, a set of colors per vertex and a palette per ear: the
    same colors dict, or the same error."""

    def test_the_corpus(self, exhaustive_corpus):
        for g in exhaustive_corpus:
            _agrees_with_coloring_oracle(g)

    @pytest.mark.parametrize("name", fixture_names())
    def test_subdivided_fixtures(self, name):
        for k in range(7):
            _agrees_with_coloring_oracle(subdivide(fixture(name), k))

    def test_hubs_above_the_palette(self):
        # limit = max(degree, r) > r: the hub's colors run past r
        for spokes in (4, 9, 30):
            for length in (2, 3, 4, 6):
                _agrees_with_coloring_oracle(spoked_wheel(spokes, length))
        for loops in (2, 5, 40):
            for length in (3, 4, 5, 7):
                _agrees_with_coloring_oracle(chain_graph(1, [(0, 0, length)] * loops))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chain_graphs(), st.integers(1, 6))
    def test_chain_graphs(self, g, r):
        _agrees_with_coloring_oracle(g, [r])

    def test_equal_end_colors_at_limit_r(self):
        # a theta of three 4-edge chains at r = 3 has degree 3 = r, and one
        # ear of its certificate gets the same color at both ends, so the
        # rest of that ear cycles through the r - 1 other colors
        g = chain_graph(2, [(0, 1, 4)] * 3)
        coloring = acyclic_edge_coloring(g, 3)
        ends = [(seq[:2], seq[-2:]) for seq in _backward_paths(g, 4) if len(seq) > 2]
        assert g.max_degree() == 3
        assert any(coloring.colors[tuple(sorted(a))] == coloring.colors[tuple(sorted(b))] for a, b in ends)
        _agrees_with_coloring_oracle(g, [3])

    def test_both_colorings_share_one_backward_build(self, monkeypatch):
        builds = []
        certificate = colorings.certificate_or_raise

        def counted(g, p):
            builds.append(p)
            return certificate(g, p)

        monkeypatch.setattr(colorings, "certificate_or_raise", counted)
        g = subdivide(fixture("petersen"), 3)
        arboricity_coloring(g, 3)
        acyclic_edge_coloring(g, 3)
        arboricity_coloring(g, 2)
        assert builds == [4, 3]


class TestArboricityColoring:
    def test_forest_single_color(self):
        for g in (path(6), star(4), build_graph(1, [])):
            col = arboricity_coloring(g, 3)
            assert col.num_colors <= 1

    def test_c5_r1(self):
        g = cycle(5)
        col = arboricity_coloring(g, 1)
        assert col.num_colors == 2
        assert verify_cycle_rainbow(g, col, t=2)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_subdivided_dodecahedron(self, r):
        g = subdivide(fixture("dodecahedron"), r)
        col = arboricity_coloring(g, r)
        assert col.num_colors == r + 1
        assert verify_cycle_rainbow(g, col, t=r + 1)

    def test_not_degenerate_rejected(self):
        with pytest.raises(NotPathDegenerate):
            arboricity_coloring(fixture("dodecahedron"), 1)

    def test_random_degenerate_graphs(self, rng):
        done = 0
        while done < 25:
            g = random_graph(rng, rng.randint(3, 9), 0.3)
            for r in (1, 2):
                if not is_p_path_degenerate(g, r + 1).degenerate:
                    continue
                col = arboricity_coloring(g, r)
                assert col.num_colors <= r + 1
                assert verify_cycle_rainbow(g, col, t=r + 1)
                done += 1


class TestAcyclicColoring:
    def test_star_uses_degree_colors(self):
        g = star(5)
        col = acyclic_edge_coloring(g, 3)
        assert col.num_colors == 5
        assert verify_proper(g, col)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_subdivided_dodecahedron(self, r):
        g = subdivide(fixture("dodecahedron"), r)
        col = acyclic_edge_coloring(g, r)
        assert col.num_colors == max(3, r) == r
        assert verify_proper(g, col)
        assert verify_cycle_rainbow(g, col, t=r)

    def test_long_cycle_direct(self):
        # degree-2 graphs run through the same construction
        for n, r in ((5, 3), (9, 3), (12, 4), (6, 4)):
            g = cycle(n)
            if not is_p_path_degenerate(g, r + 1).degenerate:
                continue
            col = acyclic_edge_coloring(g, r)
            assert verify_proper(g, col)
            assert verify_cycle_rainbow(g, col, t=r)
            assert col.num_colors <= max(2, r)

    def test_r_below_three_rejected(self):
        with pytest.raises(ValueError):
            acyclic_edge_coloring(path(4), 2)

    def test_not_degenerate_rejected(self):
        with pytest.raises(NotPathDegenerate):
            acyclic_edge_coloring(subdivide(fixture("dodecahedron"), 1), 3)

    def test_random_degenerate_graphs(self, rng):
        done = 0
        while done < 25:
            g = random_graph(rng, rng.randint(3, 10), 0.25)
            for r in (3, 4):
                if not is_p_path_degenerate(g, r + 1).degenerate:
                    continue
                col = acyclic_edge_coloring(g, r)
                assert verify_proper(g, col)
                assert verify_cycle_rainbow(g, col, t=r)
                assert col.num_colors <= max(g.max_degree(), r)
                done += 1

    def test_theta_families(self):
        for lengths, r in [((4, 4, 4), 3), ((5, 5, 6), 4)]:
            g = theta(*lengths)
            if not is_p_path_degenerate(g, r + 1).degenerate:
                continue
            col = acyclic_edge_coloring(g, r)
            assert verify_proper(g, col)
            assert verify_cycle_rainbow(g, col, t=r)

    def test_degree_above_r(self):
        # hubs of degree 5 with r=3: the palette grows to the degree
        g = theta(4, 4, 4, 4, 4)
        assert g.degree(0) == 5
        col = acyclic_edge_coloring(g, 3)
        assert verify_proper(g, col)
        assert verify_cycle_rainbow(g, col, t=3)
        assert col.num_colors == 5

    def test_degree_above_r_with_pendants(self):
        base = theta(5, 5, 5, 5)
        extra = [(0, base.n + i) for i in range(3)]  # hub degree 7
        g = build_graph(base.n + 3, list(base.edges) + extra)
        col = acyclic_edge_coloring(g, 4)
        assert verify_proper(g, col)
        assert verify_cycle_rainbow(g, col, t=4)
        assert col.num_colors <= max(g.max_degree(), 4) == 7


class TestHundredsOfVertices:
    """Both colorings pass their verifiers on relabeled subdivided random
    graphs of 100 to 400 vertices that are (r+1)-path degenerate."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(lambda r: st.tuples(st.just(r), degenerate_subdivisions(r))))
    def test_arboricity(self, case):
        r, g = case
        col = arboricity_coloring(g, r)
        assert verify_cycle_rainbow(g, col, t=r + 1)
        assert col.num_colors <= r + 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(3, 5).flatmap(lambda r: st.tuples(st.just(r), degenerate_subdivisions(r))))
    def test_acyclic(self, case):
        r, g = case
        col = acyclic_edge_coloring(g, r)
        assert verify_proper(g, col)
        assert verify_cycle_rainbow(g, col, t=r)
        assert col.num_colors <= max(g.max_degree(), r)


class TestDeterminism:
    def test_same_input_same_coloring(self):
        g = subdivide(fixture("dodecahedron"), 3)
        assert arboricity_coloring(g, 3).colors == arboricity_coloring(g, 3).colors
        assert acyclic_edge_coloring(g, 3).colors == acyclic_edge_coloring(g, 3).colors


class TestPalettes:
    def test_arboricity_exactly_r_plus_1_with_cycle(self):
        # girth > r+1 forces all r+1 colors onto some cycle
        for r in (1, 2):
            g = cycle(2 * r + 4)
            col = arboricity_coloring(g, r)
            assert col.num_colors == r + 1

    def test_acyclic_exactly_max_with_cycle(self):
        g = subdivide(fixture("dodecahedron"), 3)
        col = acyclic_edge_coloring(g, 3)
        assert col.num_colors == max(g.max_degree(), 3)
