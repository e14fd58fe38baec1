from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pathdeg import build_graph, complete, cycle
from pathdeg.graph import is_connected

from canonical import CONNECTED_COUNTS, canonical_key
from conftest import star


@st.composite
def equal_size_pairs(draw):
    """Two graphs of equal order and size on at most 8 vertices: the second
    is a relabeling of the first after up to two edge swaps of one kind,
    either moving an edge or exchanging the ends of two (degrees kept)."""
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(n), 2))
    edges = {e for e, keep in zip(pairs, draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep}
    other = set(edges)
    kind = draw(st.sampled_from(["relabel", "move", "exchange"]))
    for _ in range(draw(st.integers(1, 2)) if kind != "relabel" else 0):
        if kind == "move":
            swaps = [(e, f) for e in sorted(other) for f in pairs if f not in other]
        else:
            swaps = [((a, b), (c, d)) for (a, b), (c, d) in combinations(sorted(other), 2)
                     if len({a, b, c, d}) == 4
                     and (min(a, c), max(a, c)) not in other and (min(b, d), max(b, d)) not in other]
        if not swaps:
            break
        e, f = draw(st.sampled_from(swaps))
        if kind == "move":
            other = (other - {e}) | {f}
        else:
            (a, b), (c, d) = e, f
            other = (other - {e, f}) | {(min(a, c), max(a, c)), (min(b, d), max(b, d))}
    perm = draw(st.permutations(range(n)))
    return build_graph(n, sorted(edges)), build_graph(n, [(perm[u], perm[v]) for u, v in other])


class TestCanonicalKey:
    def test_relabeling_invariance(self, rng):
        for _ in range(150):
            n = rng.randint(1, 8)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.45]
            g = build_graph(n, edges)
            perm = list(range(n))
            rng.shuffle(perm)
            h = build_graph(n, [(perm[u], perm[v]) for u, v in edges])
            assert canonical_key(g) == canonical_key(h)

    def test_distinguishes_nonisomorphic(self):
        # same degree sequence, different graphs: C6 vs two triangles
        g = cycle(6)
        h = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert canonical_key(g) != canonical_key(h)

    def test_regular_pair(self):
        # K(3,3) vs prism: both cubic on 6 vertices
        from pathdeg import fixture

        assert canonical_key(fixture("k33")) != canonical_key(fixture("prism"))

    def test_twin_rich_graphs(self, rng):
        # color refinement never splits these, so every cell is all twins
        graphs = []
        for n in (5, 8, 12):
            graphs += [build_graph(n, []), complete(n), star(n - 1)]
        graphs += [build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
                   for a, b in ((2, 3), (3, 3), (4, 8), (6, 6))]
        keys = set()
        for g in graphs:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
            assert canonical_key(g) == canonical_key(h)
            keys.add(canonical_key(g))
        assert len(keys) == len(graphs)

    def test_deep_refinement_tree(self):
        # each of the 1100 levels individualizes one vertex, past the
        # default recursion limit
        assert canonical_key(build_graph(1100, [])) == (1100, 0)

    def test_order_matters(self):
        assert canonical_key(build_graph(3, [])) != canonical_key(build_graph(4, []))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(equal_size_pairs())
    def test_keys_agree_with_networkx_isomorphism(self, pair):
        nx = pytest.importorskip("networkx")
        g, h = pair
        as_nx = [nx.Graph(list(x.edges)) for x in (g, h)]
        for x, nxg in zip((g, h), as_nx):
            nxg.add_nodes_from(range(x.n))
        assert (canonical_key(g) == canonical_key(h)) == nx.is_isomorphic(*as_nx)


class TestBuiltinCorpus:
    def test_counts_per_order(self, exhaustive_corpus):
        by_n = {}
        for g in exhaustive_corpus:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        assert by_n == CONNECTED_COUNTS

    def test_all_connected(self, exhaustive_corpus):
        assert all(is_connected(g) for g in exhaustive_corpus)

    def test_no_isomorphic_duplicates(self, exhaustive_corpus):
        # with the counts above, distinct keys put every isomorphism class
        # of each order in the corpus exactly once
        keys = {canonical_key(g) for g in exhaustive_corpus}
        assert len(keys) == len(exhaustive_corpus)

    def test_matches_the_graph_atlas(self, exhaustive_corpus):
        # the Atlas of Graphs (Read & Wilson) lists every graph on at most
        # 7 vertices once, disconnected ones included
        nx = pytest.importorskip("networkx")
        atlas = nx.graph_atlas_g()
        keys = [canonical_key(build_graph(a.number_of_nodes(), list(a.edges()))) for a in atlas]
        assert len(set(keys)) == len(atlas) == 1253
        connected = {key for key, a in zip(keys, atlas) if a.number_of_nodes() and nx.is_connected(a)}
        assert connected == {canonical_key(g) for g in exhaustive_corpus if g.n <= 7}
