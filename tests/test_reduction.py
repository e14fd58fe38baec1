import copy
import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from pathdeg import build_graph, complete, cycle, fixture, girth, graph, path, reduction, subdivide, theta
from pathdeg.colorings import acyclic_edge_coloring, arboricity_coloring, verify_cycle_rainbow
from pathdeg.density import mad
from pathdeg.formats import parse_certificate, parse_graph6, serialize_certificate
from pathdeg.graph import core_skeleton, induced_subgraph
from pathdeg.wcol import WcolBoundParams, weak_order
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
    certificate_or_raise,
    exact_ear_certificate,
    find_p_reduction,
    greedy_reduce,
    is_p_path_degenerate,
    minimal_irreducible_witness,
    minimal_irreducible_witness_edges,
    replay_certificate,
)

import ear_oracle
from replay_oracle import replay_certificate_by_copy
from conftest import random_graph, random_graphs, run_capped, trees_and_subdivisions


class TestFindStep:
    def test_c5_exact_p4_is_long_ear(self):
        step = exact_ear_certificate(ReductionSequence(4, (find_p_reduction(cycle(5), 4),))).steps[0]
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


class TestReductionStep:
    def test_steps_are_immutable(self):
        step = ReductionStep(EAR, (0, 1, 2, 3))
        with pytest.raises(AttributeError):
            step.kind = LEAF
        with pytest.raises(AttributeError):
            step.vertices = (0,)
        assert step == ReductionStep(EAR, (0, 1, 2, 3)) and hash(step) == hash(ReductionStep(EAR, (0, 1, 2, 3)))

    @pytest.mark.parametrize("step, deleted, line", [
        (ReductionStep(ISOLATED, (4,)), (4,), "I 4"),
        (ReductionStep(LEAF, (0,)), (0,), "L 0"),
        (ReductionStep(EAR, (3, 1, 2, 0)), (1, 2), "E 3 1 2 0"),
    ])
    def test_deleted_and_line(self, step, deleted, line):
        assert step.deleted == deleted and step.to_line() == line

    def test_parse_serialize_round_trip(self):
        g = subdivide(fixture("petersen"), 2)
        for exact in (False, True):
            cert = certificate_or_raise(g, 3)
            if exact:
                cert = exact_ear_certificate(cert)
            text = serialize_certificate(cert)
            parsed = parse_certificate(text, p=3, exact_ears=exact)
            assert parsed == cert and serialize_certificate(parsed) == text
            assert all(type(step) is ReductionStep for step in parsed.steps)
            assert text.splitlines() == [step.to_line() for step in cert.steps]


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
        plain, residual = greedy_reduce(subdivide(fixture("dodecahedron"), 5), 6)
        seq = exact_ear_certificate(plain)
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

    def test_long_triangle_row_under_memory_cap(self):
        # needs 600 successive ear deletions, deeper than the interpreter's recursion limit
        out = run_capped("from conftest import triangle_row\n"
                         "from pathdeg.reduction import backtrack_degenerate\n"
                         "print(backtrack_degenerate(triangle_row(600), 2))\n")
        assert out.strip() == "True"

    def test_long_cycle_is_one_state_under_memory_cap(self):
        # the whole cycle is one chain, so one state; one move per sub-ear would cost cubic memory
        out = run_capped("from pathdeg import cycle\n"
                         "from pathdeg.reduction import backtrack_degenerate\n"
                         "print(backtrack_degenerate(cycle(400), 2, budget=1))\n")
        assert out.strip() == "True"

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_matches_ear_oracle_and_greedy_on_corpus(self, exhaustive_corpus, p):
        for g in exhaustive_corpus:
            verdict = backtrack_degenerate(g, p)
            assert verdict == ear_oracle.backtrack_degenerate(g, p)
            assert verdict == is_p_path_degenerate(g, p).degenerate

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(trees_and_subdivisions(max_n=30), st.integers(2, 6))
    def test_matches_ear_oracle_up_to_30_vertices(self, g, p):
        assert backtrack_degenerate(g, p) == ear_oracle.backtrack_degenerate(g, p)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(trees_and_subdivisions(max_n=40), st.integers(2, 6))
    def test_greedy_matches_oracle_up_to_40_vertices(self, g, p):
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
        with pytest.raises(CertificateError):
            replay_certificate(g, swapped)

    def test_replay_rejects_short_ear(self):
        g = cycle(9)
        cert = is_p_path_degenerate(g, 4).certificate
        strict = ReductionSequence(p=9, steps=cert.steps)
        with pytest.raises(CertificateError):
            replay_certificate(g, strict)

    def test_replay_rejects_wrong_graph(self):
        cert = is_p_path_degenerate(cycle(9), 4).certificate
        with pytest.raises(CertificateError):
            replay_certificate(cycle(10), cert)

    def test_replay_requires_empty_end(self):
        g = cycle(9)
        cert = is_p_path_degenerate(g, 4).certificate
        partial = ReductionSequence(p=4, steps=cert.steps[:-1])
        with pytest.raises(CertificateError, match="remain"):
            replay_certificate(g, partial)

    @pytest.mark.parametrize("step", [ReductionStep(LEAF, (0, 1)), ReductionStep(ISOLATED, ())])
    def test_replay_rejects_malformed_vertex_step(self, step):
        with pytest.raises(CertificateError, match="takes exactly one vertex"):
            replay_certificate(path(2), ReductionSequence(p=2, steps=(step,)))

    @pytest.mark.parametrize("steps, error", [
        (((LEAF, (-1,)), (ISOLATED, (0,))), "step 1 (L -1): vertex -1 not present"),
        (((ISOLATED, (2,)),), "step 1 (I 2): vertex 2 not present"),
        (((LEAF, (0,)), (ISOLATED, (-1,))), "step 2 (I -1): vertex -1 not present"),
    ])
    def test_replay_rejects_ids_out_of_range(self, steps, error):
        # on path(2), L -1 then I 0 would empty the graph if -1 were read
        # as vertex n-1 = 1, a leaf
        cert = ReductionSequence(p=2, steps=tuple(ReductionStep(*step) for step in steps))
        with pytest.raises(CertificateError) as exc:
            replay_certificate(path(2), cert)
        assert str(exc.value) == error

    @pytest.mark.parametrize("ear", [(-1, 0, 1, 2), (0, 1, 2, 5), (3, 0, 1, -5)])
    def test_replay_rejects_ear_ids_out_of_range(self, ear):
        cert = ReductionSequence(p=2, steps=(ReductionStep(EAR, ear),))
        with pytest.raises(CertificateError, match=fr"step 1 \(E [-\d ]+\): vertex -?\d+ not present"):
            replay_certificate(cycle(5), cert)

    @pytest.mark.parametrize("p", [1, 0, -3])
    def test_replay_rejects_p_below_2(self, p):
        # at p = 1 the ear E 0 1 has no interior and would replay as a no-op
        cert = ReductionSequence(p=p, steps=(ReductionStep(EAR, (0, 1)), ReductionStep(LEAF, (0,)),
                                             ReductionStep(ISOLATED, (1,))))
        with pytest.raises(ValueError, match="p must be >= 2"):
            replay_certificate(path(2), cert)

    def test_certificate_or_raise_counts_the_witness(self):
        g = subdivide(fixture("dodecahedron"), 1)
        with pytest.raises(NotPathDegenerate, match=r"not 3-path degenerate \(50 vertices stay irreducible\)"):
            certificate_or_raise(g, 3)
        assert certificate_or_raise(g, 2) == is_p_path_degenerate(g, 2).certificate

    def test_certificates_replay_across_corpus(self, corpus):
        for g in corpus.values():
            for p in (2, 3):
                verdict = is_p_path_degenerate(g, p)
                if verdict.degenerate:
                    replay_certificate(g, verdict.certificate)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(trees_and_subdivisions(max_n=40), st.integers(2, 6), st.booleans())
    def test_certificates_replay_and_witnesses_are_irreducible(self, g, p, exact):
        verdict = is_p_path_degenerate(g, p)
        if verdict.degenerate:
            replay_certificate(g, exact_ear_certificate(verdict.certificate) if exact else verdict.certificate)
        else:
            assert find_p_reduction(verdict.witness, p) is None


def _replay_error(replay, g, cert):
    try:
        replay(g, cert)
    except CertificateError as exc:
        return str(exc)
    return None


def _mutations(cert, n, rng):
    """Broken variants of one certificate on an n-vertex graph: the last
    step dropped, two steps swapped, an ear vertex repeated, an ear one
    edge short, exact ears required of a plain run, an unknown kind and
    ids just outside 0..n-1."""
    steps = list(cert.steps)

    def at(i, step):
        return ReductionSequence(cert.p, tuple(steps[:i] + [step] + steps[i + 1:]), cert.exact_ears)

    if steps:
        yield ReductionSequence(cert.p, tuple(steps[:-1]), cert.exact_ears)
        i = rng.randrange(len(steps))
        yield at(i, ReductionStep("X", steps[i].vertices))
        for bad in (-1, n):
            vs = steps[i].vertices
            yield at(i, ReductionStep(steps[i].kind, (*vs[:-1], bad)))
    if len(steps) > 1:
        i, j = sorted(rng.sample(range(len(steps)), 2))
        yield ReductionSequence(cert.p, tuple(steps[:i] + [steps[j]] + steps[i + 1:j] + [steps[i]] + steps[j + 1:]),
                                cert.exact_ears)
    ears = [i for i, step in enumerate(steps) if step.kind == EAR]
    if ears:
        i = rng.choice(ears)
        vs = steps[i].vertices
        yield at(i, ReductionStep(EAR, (*vs[:2], *vs[1:])))
        yield at(i, ReductionStep(EAR, (vs[0], *vs[2:])))
        yield ReductionSequence(cert.p, cert.steps, True)


class TestReplayAgreesWithOracle:
    """Production replay and the dict-of-sets replay it replaced give the
    same CertificateError text, or none, on every certificate and on
    broken variants of it."""

    @staticmethod
    def assert_agree(g, cert):
        assert _replay_error(replay_certificate, g, cert) == _replay_error(replay_certificate_by_copy, g, cert), cert

    def check(self, g, p, rng):
        for exact in (False, True):
            cert, _ = greedy_reduce(g, p)
            if exact:
                cert = exact_ear_certificate(cert)
            self.assert_agree(g, cert)
            for broken in _mutations(cert, g.n, rng):
                self.assert_agree(g, broken)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_corpus(self, exhaustive_corpus, p):
        rng = random.Random(p)
        for g in exhaustive_corpus:
            self.check(g, p, rng)

    @pytest.mark.parametrize("name", ["dodecahedron", "petersen", "heawood", "tutte-coxeter"])
    def test_subdivided_fixtures(self, name):
        rng = random.Random(name)
        for k in range(5):
            g = subdivide(fixture(name), k)
            for p in range(2, 8):
                for _ in range(3):
                    self.check(g, p, rng)

    def test_every_mutation_kind_is_refused(self):
        g = subdivide(fixture("petersen"), 2)
        cert = certificate_or_raise(g, 3)
        errors = [_replay_error(replay_certificate, g, broken) for broken in _mutations(cert, g.n, random.Random(1))]
        assert len(errors) == 8 and all(errors), errors


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
        _, size, branch, chains, links = core_skeleton(w)
        assert size == w.m  # w is a 2-core
        assert len(links) == len(chains)  # no cycle component
        assert sum(length for _, _, length in links) == w.m
        degs = {v: 0 for v in range(len(branch))}
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
        b, _ = greedy_reduce(build_graph(g.n, g.edges), 3)
        assert a.steps == b.steps


@pytest.fixture
def engine_runs(monkeypatch):
    """Counts greedy engine runs: calls of reduction._peel."""
    runs = []
    peel = reduction._peel

    def counted(g, p, live):
        runs.append(p)
        return peel(g, p, live)

    monkeypatch.setattr(reduction, "_peel", counted)
    return runs


def _copy(g):
    return build_graph(g.n, g.edges)


class TestOneRunPerGraph:
    def test_decision_and_both_colorings_share_one_run(self, engine_runs):
        g = subdivide(fixture("petersen"), 3)
        verdict = is_p_path_degenerate(g, 4)
        arb = arboricity_coloring(g, 3)
        acyclic = acyclic_edge_coloring(g, 3)
        assert verdict.degenerate
        assert engine_runs == [4]
        assert arb == arboricity_coloring(_copy(g), 3)
        assert acyclic == acyclic_edge_coloring(_copy(g), 3)

    def test_decision_colorings_and_weak_order_share_one_run(self, engine_runs):
        # p = 2q = r+1 = 4: the weak order reads the plain run
        g = subdivide(fixture("petersen"), 3)
        params = WcolBoundParams(r=1, q=2)
        assert is_p_path_degenerate(g, params.p).degenerate
        arb = arboricity_coloring(g, 3)
        acyclic = acyclic_edge_coloring(g, 3)
        order = weak_order(g, params)
        assert engine_runs == [4]
        assert (arb, acyclic, order) == (arboricity_coloring(_copy(g), 3), acyclic_edge_coloring(_copy(g), 3),
                                         weak_order(_copy(g), params))

    def test_rebuilt_copy_is_decided_afresh(self, engine_runs):
        g = subdivide(fixture("petersen"), 3)
        h = _copy(g)
        assert h == g and h is not g
        assert is_p_path_degenerate(g, 4) == is_p_path_degenerate(h, 4)
        assert engine_runs == [4, 4]

    def test_exact_and_non_exact_kept_apart(self, engine_runs):
        g = cycle(7)
        loose = is_p_path_degenerate(g, 3)
        exact = exact_ear_certificate(loose.certificate)
        assert loose.certificate != exact
        assert greedy_reduce(g, 3)[0] == loose.certificate
        assert exact_ear_certificate(certificate_or_raise(g, 3)) == exact
        # the exact-ear certificate is a rewrite of the one plain run
        assert engine_runs == [3]
        assert loose == is_p_path_degenerate(_copy(g), 3)
        assert exact == exact_ear_certificate(is_p_path_degenerate(_copy(g), 3).certificate)

    def test_failed_decision_is_shared_too(self, engine_runs):
        g = cycle(5)
        with pytest.raises(NotPathDegenerate):
            certificate_or_raise(g, 5)
        verdict = is_p_path_degenerate(g, 5)
        assert verdict.witness == g and verdict.witness_vertices == tuple(range(5))
        assert engine_runs == [5]

    def test_witness_check_keeps_the_decided_graph(self, engine_runs):
        # C5 with a pendant path: its witness at p = 5 is a new graph, the
        # C5, which the CLI's check and the corpus test for a first step
        g = build_graph(7, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (5, 6)])
        verdict = is_p_path_degenerate(g, 5)
        assert not verdict.degenerate and verdict.witness is not g
        assert find_p_reduction(verdict.witness, 5) is None
        assert is_p_path_degenerate(g, 5) == verdict
        with pytest.raises(NotPathDegenerate):
            certificate_or_raise(g, 5)
        assert engine_runs == [5, 5]      # g once, the witness once

    def test_earlier_graph_is_not_kept_alive(self):
        g = subdivide(fixture("petersen"), 3)
        is_p_path_degenerate(g, 4)
        ref = weakref.ref(g)
        h = cycle(9)
        is_p_path_degenerate(h, 4)
        del g
        gc.collect()
        assert ref() is None

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(trees_and_subdivisions(max_n=40), random_graphs(max_n=40)), st.data())
    def test_any_call_order_matches_fresh_copies(self, g, data):
        ops = [("decide", p, exact) for p in (2, 3, 4) for exact in (False, True)]
        ops += [("arboricity", r) for r in (1, 2, 3)]
        ops += [("acyclic", 3), ("weak_order",)]

        def run(op, graph):
            try:
                if op[0] == "decide":
                    verdict = is_p_path_degenerate(graph, op[1])
                    return (verdict, exact_ear_certificate(greedy_reduce(graph, op[1])[0])) if op[2] else verdict
                if op[0] == "arboricity":
                    return arboricity_coloring(graph, op[1])
                if op[0] == "acyclic":
                    return acyclic_edge_coloring(graph, op[1])
                return weak_order(graph, WcolBoundParams(r=1, q=2))
            except NotPathDegenerate as exc:
                return str(exc)

        fresh = {op: run(op, _copy(g)) for op in ops}
        for op in data.draw(st.permutations(ops)):
            assert run(op, g) == fresh[op], op


@pytest.fixture
def skeleton_builds(monkeypatch):
    """Counts chain skeleton builds: calls of graph._skeleton."""
    builds = []
    build = graph._skeleton

    def counted(g):
        builds.append(g)
        return build(g)

    monkeypatch.setattr(graph, "_skeleton", counted)
    return builds


# theta(3,4,5) with a 4-edge loop chain at a hub and a pendant edge, and
# Petersen with a pendant path beside a C4: a loop chain and a core
# component without a branch vertex.  Each test works on its own copy.
SKELETON_INPUTS = [subdivide(parse_graph6(text), 3) for text in ("NR_IK?@?I?o??@_?_?O", "OheA@GUAs??@????_?G?D")]


class TestOneSkeletonPerGraph:
    @pytest.mark.parametrize("g", SKELETON_INPUTS)
    def test_readers_share_one_build(self, g, skeleton_builds):
        g = _copy(g)
        girth(g)
        mad(g)
        assert verify_cycle_rainbow(g, arboricity_coloring(g, 3), 4)
        assert verify_cycle_rainbow(g, acyclic_edge_coloring(g, 3), 3)
        assert skeleton_builds == [g]

    def test_greedy_runs_and_skeleton_coexist(self, engine_runs, skeleton_builds):
        g = _copy(SKELETON_INPUTS[0])
        assert is_p_path_degenerate(g, 4).degenerate
        value = girth(g)
        arb = arboricity_coloring(g, 3)
        assert girth(g) == value and verify_cycle_rainbow(g, arb, 4)
        assert is_p_path_degenerate(g, 4).degenerate
        assert engine_runs == [4] and skeleton_builds == [g]
        girth(cycle(5))             # another graph empties the slot
        assert is_p_path_degenerate(g, 4).degenerate and girth(g) == value
        assert engine_runs == [4, 4]
        assert skeleton_builds == [g, cycle(5), g]

    def test_rebuilt_copy_is_computed_afresh(self, skeleton_builds):
        g = _copy(SKELETON_INPUTS[1])
        h = _copy(g)
        assert h == g and h is not g
        assert girth(g) == girth(h) and mad(g) == mad(h)
        assert skeleton_builds == [g, h, g, h]

    @pytest.mark.parametrize("g", SKELETON_INPUTS)
    def test_readers_leave_the_skeleton_unchanged(self, g):
        g = _copy(g)
        skeleton = core_skeleton(g)
        before = copy.deepcopy(skeleton)
        arb, acyclic = arboricity_coloring(g, 3), acyclic_edge_coloring(g, 3)
        for read in (girth, mad, lambda g: verify_cycle_rainbow(g, arb, 4),
                     lambda g: verify_cycle_rainbow(g, acyclic, 3)):
            read(g)
            assert core_skeleton(g) is skeleton and skeleton == before
        assert before == graph._skeleton(g)


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
        _, size, _, _, links = core_skeleton(w)
        assert size == w.m  # w is a 2-core
        pairs = [tuple(sorted((i, j))) for i, j, _ in links]
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
