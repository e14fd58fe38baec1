import pytest

from pathdeg import build_graph, complete, cycle, fixture, girth, path, subdivide, theta
from pathdeg.graph import induced_subgraph, suppressed_multigraph
from pathdeg.reduction import (
    EAR,
    ISOLATED,
    LEAF,
    CertificateError,
    NotPathDegenerate,
    ReductionSequence,
    ReductionStep,
    SearchBudgetExceeded,
    backtrack_degenerate,
    certificate_replays,
    find_p_reduction,
    greedy_reduce,
    is_p_path_degenerate,
    minimal_irreducible_witness,
    minimal_irreducible_witness_edges,
    replay_certificate,
)

from conftest import random_graph


class TestFindStep:
    def test_c5_exact_p4_is_long_ear(self):
        step = find_p_reduction(cycle(5), 4, exact_ears=True)
        assert step.kind == EAR and len(step.vertices) == 5
        assert len(step.deleted) == 3

    def test_dodecahedron_p2_irreducible(self):
        assert find_p_reduction(fixture("dodecahedron"), 2) is None

    def test_isolated_vertex(self):
        step = find_p_reduction(build_graph(1, []), 7)
        assert step == ReductionStep(ISOLATED, (0,))

    def test_leaf_before_ear(self):
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1), (1, 5)])
        step = find_p_reduction(g, 2)
        assert step.kind == LEAF

    def test_p_below_two_rejected(self):
        with pytest.raises(ValueError):
            find_p_reduction(cycle(3), 1)

    def test_deterministic_choice(self):
        g = cycle(8)
        assert find_p_reduction(g, 3) == find_p_reduction(g, 3)


class TestGreedyReduce:
    def test_tree_empties_by_leaves(self):
        seq, residual = greedy_reduce(path(6), 9)
        assert residual.n == 0
        assert all(s.kind in (LEAF, ISOLATED) for s in seq.steps)

    def test_c5_p5_stuck(self):
        seq, residual = greedy_reduce(cycle(5), 5)
        assert residual.n == 5 and residual.m == 5
        assert seq.steps == ()
        assert backtrack_degenerate(cycle(5), 5) is False

    def test_theta122_matches_oracle(self):
        g = theta(1, 2, 2)
        assert girth(g) == 3
        seq, residual = greedy_reduce(g, 2)
        assert (residual.n == 0) == backtrack_degenerate(g, 2)

    def test_exact_ears_certificate_has_exact_lengths(self):
        seq, residual = greedy_reduce(subdivide(fixture("dodecahedron"), 5), 6, exact_ears=True)
        assert residual.n == 0
        ear_lengths = {len(s.vertices) - 1 for s in seq.steps if s.kind == EAR}
        assert ear_lengths == {6}
        replay_certificate(subdivide(fixture("dodecahedron"), 5), seq)


class TestVerdicts:
    @pytest.mark.parametrize("n", range(3, 13))
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_cycle_law(self, n, p):
        verdict = is_p_path_degenerate(cycle(n), p)
        assert verdict.degenerate == (n >= p + 1)
        assert verdict.degenerate == backtrack_degenerate(cycle(n), p)

    def test_forest_certificate_is_leaf_only(self):
        verdict = is_p_path_degenerate(path(8), 4)
        assert verdict.degenerate
        assert all(s.kind in (LEAF, ISOLATED) for s in verdict.certificate.steps)
        replay_certificate(path(8), verdict.certificate)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_subdivided_dodecahedron_witness(self, p):
        g = subdivide(fixture("dodecahedron"), p - 2)
        verdict = is_p_path_degenerate(g, p)
        assert not verdict.degenerate
        assert verdict.witness.n > 0
        assert find_p_reduction(verdict.witness, p) is None

    def test_witness_is_induced_subgraph(self):
        g = subdivide(fixture("dodecahedron"), 1)
        verdict = is_p_path_degenerate(g, 3)
        assert induced_subgraph(g, verdict.witness_vertices).edges == verdict.witness.edges

    def test_empty_graph_degenerate(self):
        verdict = is_p_path_degenerate(build_graph(0, []), 3)
        assert verdict.degenerate and verdict.certificate.steps == ()


class TestBacktracking:
    def test_spec_examples(self):
        assert backtrack_degenerate(cycle(5), 4) is True
        assert backtrack_degenerate(fixture("dodecahedron"), 2) is False
        assert backtrack_degenerate(build_graph(0, []), 3) is True

    def test_budget_signal(self):
        # one ear deletion leaves a path, which peels away without a state
        assert backtrack_degenerate(cycle(12), 2, budget=1) is True
        with pytest.raises(SearchBudgetExceeded):
            backtrack_degenerate(subdivide(complete(4), 1), 2, budget=2)

    def test_long_path_peels_in_one_state(self):
        assert backtrack_degenerate(path(5000), 2, budget=1) is True

    def test_greedy_matches_oracle_on_randoms(self, rng):
        for _ in range(120):
            g = random_graph(rng, rng.randint(2, 9), rng.uniform(0.15, 0.6))
            for p in (2, 3, 5):
                assert is_p_path_degenerate(g, p).degenerate == backtrack_degenerate(g, p)


class TestHeredity:
    def test_subgraphs_of_degenerate_stay_degenerate(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 9), 0.3)
            for p in (2, 3):
                if not is_p_path_degenerate(g, p).degenerate:
                    continue
                keep = [v for v in range(g.n) if rng.random() < 0.7]
                h = induced_subgraph(g, keep)
                assert is_p_path_degenerate(h, p).degenerate


class TestCertificates:
    def test_replay_rejects_tampered_order(self):
        g = cycle(9)
        cert = is_p_path_degenerate(g, 4).certificate
        swapped = ReductionSequence(p=4, steps=tuple(reversed(cert.steps)))
        assert not certificate_replays(g, swapped)

    def test_replay_rejects_short_ear(self):
        g = cycle(9)
        cert = is_p_path_degenerate(g, 4).certificate
        strict = ReductionSequence(p=9, steps=cert.steps)
        assert not certificate_replays(g, strict)

    def test_replay_rejects_wrong_graph(self):
        cert = is_p_path_degenerate(cycle(9), 4).certificate
        assert not certificate_replays(cycle(10), cert)

    def test_replay_requires_empty_end(self):
        g = cycle(9)
        cert = is_p_path_degenerate(g, 4).certificate
        partial = ReductionSequence(p=4, steps=cert.steps[:-1])
        with pytest.raises(CertificateError, match="remain"):
            replay_certificate(g, partial)

    def test_certificates_replay_across_corpus(self, corpus):
        for g in corpus.values():
            for p in (2, 3):
                verdict = is_p_path_degenerate(g, p)
                if verdict.degenerate:
                    replay_certificate(g, verdict.certificate)


class TestMinimalWitness:
    def test_dodecahedron_is_its_own_witness(self):
        w = minimal_irreducible_witness(fixture("dodecahedron"), 2)
        assert w.n == 20 and w.m == 30

    def test_c5_plus_tree(self):
        g = build_graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 8)])
        w = minimal_irreducible_witness(g, 5)
        assert w.n == 5 and w.m == 5 and all(d == 2 for d in w.degrees())

    def test_witness_properties(self):
        g = subdivide(fixture("dodecahedron"), 1)
        edges = minimal_irreducible_witness_edges(g, 3)
        assert edges <= g.edges
        w = minimal_irreducible_witness(g, 3)
        assert find_p_reduction(w, 3) is None
        assert min(w.degrees()) >= 2
        for e in sorted(w.edges)[:5]:
            reduced = build_graph(w.n, w.edges - {e})
            assert is_p_path_degenerate(reduced, 3).degenerate

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_every_witness_edge_is_needed(self, exhaustive_corpus, p):
        for g in exhaustive_corpus:
            if g.n > 6 or is_p_path_degenerate(g, p).degenerate:
                continue
            edges = minimal_irreducible_witness_edges(g, p)
            assert not is_p_path_degenerate(build_graph(g.n, edges), p).degenerate
            for e in edges:
                assert is_p_path_degenerate(build_graph(g.n, edges - {e}), p).degenerate

    def test_degenerate_input_rejected(self):
        with pytest.raises(NotPathDegenerate):
            minimal_irreducible_witness(path(5), 3)

    @pytest.mark.parametrize("p", [3, 4])
    def test_high_girth_witness_is_short_subdivision(self, p):
        g = subdivide(fixture("dodecahedron"), p - 2)
        assert girth(g) >= 2 * p - 1
        w = minimal_irreducible_witness(g, p)
        branch = [v for v in range(w.n) if w.degree(v) != 2]
        links = [(c[0], c[-1], len(c) - 1) for c in suppressed_multigraph(w.adj, branch)]
        assert sum(length for _, _, length in links) == w.m  # no cycle component
        degs = {v: 0 for v in branch}
        seen_pairs = set()
        simple = True
        for a, b, length in links:
            degs[a] += 1
            degs[b] += 1
            assert length <= p - 1
            if a == b or (min(a, b), max(a, b)) in seen_pairs:
                simple = False
            seen_pairs.add((min(a, b), max(a, b)))
        assert simple and all(d >= 3 for d in degs.values())


class TestEmbeddedObstruction:
    """A short subdivision of a minimum-degree-3 graph is irreducible, so
    any host containing one stays non-degenerate no matter what hangs off
    it."""

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_host_with_embedded_subdivision(self, p):
        core = subdivide(fixture("k4"), p - 2)
        extra = [(0, core.n), (core.n, core.n + 1), (1, core.n + 2)]
        host = build_graph(core.n + 3, list(core.edges) + extra)
        assert not is_p_path_degenerate(host, p).degenerate
        # the trimmings alone unravel, so the core is what resists
        assert is_p_path_degenerate(build_graph(3, [(0, 1), (1, 2)]), p).degenerate

    def test_witness_of_disconnected_input_is_connected(self):
        g = build_graph(11, [(i, (i + 1) % 5) for i in range(5)]
                        + [(5 + i, 5 + (i + 1) % 6) for i in range(6)])
        # C5 and C6 components; only C5 resists p=5
        w = minimal_irreducible_witness(g, 5)
        assert w.n == 5 and w.m == 5
        from pathdeg.graph import is_connected

        assert is_connected(w)


class TestDeterministicConstructions:
    def test_greedy_certificates_identical(self):
        g = subdivide(fixture("dodecahedron"), 2)
        a, _ = greedy_reduce(g, 3)
        b, _ = greedy_reduce(g, 3)
        assert a.steps == b.steps


class TestLemmaTightness:
    """Witnesses with girth exactly 2p-2 evade the subdivision
    characterization: their minimal witness smooths to a multigraph."""

    @pytest.mark.parametrize("p", [3, 4])
    def test_uneven_k4(self, p):
        from pathdeg.generators import uneven_k4_witness

        g = uneven_k4_witness(p)
        assert girth(g) == 2 * p - 2
        assert not is_p_path_degenerate(g, p).degenerate
        w = minimal_irreducible_witness(g, p)
        chains = suppressed_multigraph(w.adj, [v for v in range(w.n) if w.degree(v) != 2])
        pairs = [tuple(sorted((c[0], c[-1]))) for c in chains]
        assert len(pairs) != len(set(pairs))  # parallel chains: not simple


def _has_k4_minor(g):
    """Series-parallel reduction: delete degree-<=1 vertices and smooth
    degree-2 vertices (collapsing parallels); the graph empties iff it has
    no K4 minor, since a stuck remainder has minimum degree 3."""
    adj = {v: set(g.adj[v]) for v in range(g.n)}
    while adj:
        target = next((v for v in adj if len(adj[v]) <= 2), None)
        if target is None:
            return True
        nbrs = sorted(adj[target])
        for u in nbrs:
            adj[u].discard(target)
        del adj[target]
        if len(nbrs) == 2:
            a, b = nbrs
            adj[a].add(b)
            adj[b].add(a)
    return False


class TestCliqueMinorFreeFamilies:
    """Reference thresholds for graphs avoiding small clique minors.
    The K3/K4 values here are recorded expectations, not derived from the
    library's own guarantees; see the README note."""

    def test_k3_minor_free_always_degenerate(self):
        # K3-minor-free = forest; forests unravel for every p
        for g in (path(7), build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])):
            for p in (2, 5, 9):
                assert is_p_path_degenerate(g, p).degenerate

    def test_k4_minor_free_graphs_are_2_degenerate(self, rng):
        checked = 0
        for _ in range(80):
            g = random_graph(rng, rng.randint(3, 7), 0.4)
            if _has_k4_minor(g):
                continue
            checked += 1
            assert is_p_path_degenerate(g, 2).degenerate
        assert checked > 20

    @pytest.mark.parametrize("p", [3, 4, 5])
    def test_k4_minor_free_frontier_at_2p_minus_2(self, p):
        # theta(p-1, p-1, p-1): girth 2(p-1), no K4 minor, irreducible
        w = theta(p - 1, p - 1, p - 1)
        assert girth(w) == 2 * (p - 1)
        assert not _has_k4_minor(w)
        assert not is_p_path_degenerate(w, p).degenerate
        # anything K4-minor-free with girth above 2(p-1) unravels
        for g in (theta(p - 1, p - 1, p), theta(p, p, p), cycle(2 * p)):
            if _has_k4_minor(g):
                continue
            if girth(g) > 2 * (p - 1):
                assert is_p_path_degenerate(g, p).degenerate
