import math
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from pathdeg import build_graph, complete, cycle, fixture, path, subdivide
from pathdeg.bounds import wcol_girth_rule
from pathdeg.generators import fixture_names
from pathdeg.graph import chain_graph
from pathdeg.reduction import EAR, NotPathDegenerate, certificate_or_raise, exact_ear_certificate
from pathdeg.wcol import (
    LinearOrder,
    WcolBoundParams,
    _weak_reach,
    wcol_exact,
    wcol_under_order,
    weak_order,
    wreach_all,
    wreach_bound_ok,
    wreach_maxima,
)

from conftest import chain_graphs
from test_peel_oracle import INPUTS, ladder_graphs

class TestWreach:
    def test_path_examples(self):
        g = path(3)
        pi = LinearOrder.from_sequence([0, 1, 2])
        assert wreach_all(g, pi, 1)[2] == {1, 2}
        assert wreach_all(g, pi, 2)[2] == {0, 1, 2}

    def test_radius_zero_is_self(self, corpus):
        for g in list(corpus.values())[:6]:
            pi = LinearOrder.from_sequence(range(g.n))
            for v in range(g.n):
                assert wreach_all(g, pi, 0)[v] == {v}

    def test_internal_vertices_must_sit_above_u(self):
        # path a-b-c under order a < c < b: b sees everything, c sees a
        # through b (the internal vertex b sits above a), and at radius 1
        # c sees only itself
        g = path(3)
        pi = LinearOrder.from_sequence([0, 2, 1])
        assert wreach_all(g, pi, 2)[1] == {0, 1, 2}
        assert wreach_all(g, pi, 2)[2] == {0, 2}
        assert wreach_all(g, pi, 1)[2] == {2}

    def test_bijectivity_enforced(self):
        with pytest.raises(ValueError):
            LinearOrder.from_sequence([0, 0, 1])


def weak_reach_by_source(g, pi, x):
    """`wcol._weak_reach` as it was before radius 1 was read off each
    vertex's adjacency: one rank-restricted BFS per source u from u itself."""
    ranks = pi.ranks
    adj = g.adj
    reach = [{v: 0} for v in range(g.n)]
    for u in range(g.n):
        ru = ranks[u]
        frontier = [u]
        d = 0
        while frontier and d < x:
            d += 1
            nxt = []
            for a in frontier:
                for b in adj[a]:
                    if ranks[b] > ru and u not in reach[b]:
                        reach[b][u] = d
                        nxt.append(b)
            frontier = nxt
    return reach


class TestWeakReachAgreesWithOracle:
    """Every row, vertex -> distance, equals the per-source search's."""

    def test_corpus(self, exhaustive_corpus):
        rng = random.Random(28)
        for g in exhaustive_corpus:
            seq = list(range(g.n))
            rng.shuffle(seq)
            pi = LinearOrder.from_sequence(seq)
            for x in range(5):
                assert _weak_reach(g, pi, x) == weak_reach_by_source(g, pi, x), (g, seq, x)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chain_graphs(), st.randoms(use_true_random=False))
    def test_chain_graphs(self, g, rnd):
        seq = list(range(g.n))
        rnd.shuffle(seq)
        for pi in (LinearOrder.from_sequence(seq), LinearOrder.from_sequence(range(g.n))):
            for x in range(5):
                assert _weak_reach(g, pi, x) == weak_reach_by_source(g, pi, x)

    def test_long_path_under_identity(self):
        # |WReach_x(v)| = min(x, v) + 1, and no row grows past radius n-1
        assert wreach_maxima(path(300), LinearOrder.from_sequence(range(300)), 10000) == list(range(1, 301))


class TestWcolUnderOrder:
    def test_maxima_per_radius_from_one_search(self, corpus):
        # one entry per radius up to n-1, where the maxima stop growing:
        # the set-valued reference stays fixed from there up to r, so the
        # last entry is the weak r-coloring number under the order
        rng = random.Random(3)
        for g in [build_graph(0, []), build_graph(1, []), path(2), *corpus.values()]:
            seq = list(range(g.n))
            rng.shuffle(seq)
            pi = LinearOrder.from_sequence(seq)
            reference = [max((len(s) for s in wreach_all(g, pi, x)), default=0) for x in range(g.n + 5)]
            for r in (0, 1, 2, 4, g.n - 1, g.n, g.n + 3):
                if r >= 0:
                    top = min(r, max(g.n - 1, 0))
                    assert wreach_maxima(g, pi, r) == reference[:top + 1], (g, r)
                    assert reference[top:r + 1] == [reference[top]] * (r - top + 1), (g, r)
                    assert wcol_under_order(g, pi, r) == reference[top], (g, r)

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert wcol_under_order(g, LinearOrder.from_sequence([0]), 3) == 1

    def test_k3_any_order_is_3(self):
        g = complete(3)
        vals = {wcol_under_order(g, LinearOrder.from_sequence(s), 1) for s in permutations(range(3))}
        assert vals == {3}

    def test_p3_good_order(self):
        g = path(3)
        assert wcol_under_order(g, LinearOrder.from_sequence([0, 1, 2]), 1) == 2


class TestWcolExact:
    def test_p3(self):
        assert wcol_exact(path(3), 1) == 2

    def test_k3(self):
        assert wcol_exact(complete(3), 1) == 3

    def test_edgeless(self):
        assert wcol_exact(build_graph(4, []), 5) == 1

    def test_guard(self):
        with pytest.raises(ValueError, match="limited"):
            wcol_exact(fixture("petersen"), 2)

    def test_exact_below_any_order(self, rng):
        from conftest import random_graph

        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 6), 0.5)
            exact = wcol_exact(g, 2)
            seq = list(range(g.n))
            rng.shuffle(seq)
            assert exact <= wcol_under_order(g, LinearOrder.from_sequence(seq), 2)


def _real_target(x, params):
    """The real-valued bound on |WReach_x| along the constructed order: 1
    at x = 0, then x+2, plus log2((q-1)/(q-x)) when q < 2r."""
    if x == 0:
        return 1.0
    if params.q < 2 * params.r:
        return x + 2 + math.log2((params.q - 1) / (params.q - x))
    return float(x + 2)


def _largest_ok(x, params):
    return max(size for size in range(64) if wreach_bound_ok(size, x, params))


class TestTarget:
    def test_base(self):
        assert wreach_bound_ok(1, 0, WcolBoundParams(3, 4))
        assert not wreach_bound_ok(2, 0, WcolBoundParams(3, 4))

    def test_log_branch(self):
        assert wcol_girth_rule(3, 4) == math.floor(_real_target(3, WcolBoundParams(3, 4))) == 6

    def test_linear_branch(self):
        assert wcol_girth_rule(2, 4) == _real_target(2, WcolBoundParams(2, 4)) == 4

    def test_radius_at_half_ear_length_rejected(self):
        with pytest.raises(ValueError):
            wreach_bound_ok(5, 4, WcolBoundParams(2, 4))

    def test_params_validate(self):
        with pytest.raises(ValueError):
            WcolBoundParams(r=3, q=3)

    def test_bound_grows_with_the_radius(self):
        # the WReach maxima stay fixed past radius n-1 while the bound
        # grows, so checking radii 0..min(r, n-1) decides every radius
        for q in range(2, 401):
            params = WcolBoundParams(1, q)
            assert wreach_bound_ok(1, 0, params) and wreach_bound_ok(3, 1, params), q
            for x in range(1, q - 1):
                assert wcol_girth_rule(x, q) < wcol_girth_rule(x + 1, q), (x, q)

    @pytest.mark.parametrize("r,q", [(2, 3), (3, 4), (3, 5), (4, 5), (4, 7), (5, 6)])
    def test_unit_increments(self, r, q):
        params = WcolBoundParams(r, q)
        for x in range(r):
            assert _largest_ok(x + 1, params) >= _largest_ok(x, params) + 1

    def test_integer_comparator_matches_float(self):
        for r, q in [(2, 3), (3, 4), (2, 4), (3, 6), (4, 5)]:
            params = WcolBoundParams(r, q)
            for x in range(r + 1):
                target = _real_target(x, params)
                for size in range(1, 12):
                    # keep clear of float round-off at exact boundaries
                    if abs(size - target) > 1e-9:
                        assert wreach_bound_ok(size, x, params) == (size <= target)

    def test_integer_comparator_boundary_exact(self):
        # size == x+2+log2((q-1)/(q-x)) exactly when the ratio is a power of two
        params = WcolBoundParams(3, 4)  # x=3: 5 + log2(3)
        assert wreach_bound_ok(6, 3, params)       # 6 < 5+log2 3
        assert not wreach_bound_ok(7, 3, params)   # 7 > 5+log2 3
        params = WcolBoundParams(5, 9)  # x=5: 7 + log2(8/4) = 8 exactly
        assert wreach_bound_ok(8, 5, params)
        assert not wreach_bound_ok(9, 5, params)

    def test_girth_rule_is_the_integer_target(self):
        for r in range(1, 31):
            for q in range(r + 1, 4 * r + 1):
                params = WcolBoundParams(r, q)
                rule = wcol_girth_rule(r, q)
                assert rule == math.floor(_real_target(r, params)), (r, q)
                for size in range(int(rule) + 3):
                    assert wreach_bound_ok(size, r, params) == (size <= rule), (r, q, size)


def _assert_good_order(g, order, params):
    for x in range(params.r + 1):
        worst = max((len(s) for s in wreach_all(g, order, x)), default=0)
        assert wreach_bound_ok(worst, x, params), (x, worst)


@st.composite
def _subdivided_instances(draw):
    """(params, graph): a random graph on 3 to 6 vertices with pendant
    trees hung on it, every edge subdivided 2q-1 times, relabeled by a
    random permutation.  q runs from r+1 to 2r+1, so q < 2r is included."""
    r = draw(st.integers(1, 4))
    params = WcolBoundParams(r, draw(st.integers(r + 1, 2 * r + 1)))
    n = draw(st.integers(3, 6))
    pairs = list(combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs), min_size=n - 1, max_size=len(pairs))))
    total = n + draw(st.integers(0, 4))
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(n, total)]
    g = subdivide(build_graph(total, edges), params.p - 1)
    perm = draw(st.permutations(range(g.n)))
    return params, build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


@st.composite
def _long_chain_instances(draw):
    """(params, graph): up to five branch vertices joined by up to seven
    chains of 2q to 4q edges, loops and parallel chains included,
    relabeled by a random permutation.  Every chain holds an ear, so the
    graph is 2q-path degenerate, and most greedy ears are longer than 2q:
    the order reads their exact-ear rewrite."""
    r = draw(st.integers(1, 3))
    params = WcolBoundParams(r, draw(st.integers(r + 1, 2 * r + 1)))
    k = draw(st.integers(1, 5))
    links = []
    for _ in range(draw(st.integers(1, 7))):
        u, v = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        links.append((u, v, draw(st.integers(params.p + (u == v), 2 * params.p))))
    g = chain_graph(k, links)
    perm = draw(st.permutations(range(g.n)))
    return params, build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class TestWeakOrder:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_long_chain_instances())
    def test_girth_rule_met_on_long_chain_subdivisions(self, instance):
        params, g = instance
        maxima = wreach_maxima(g, weak_order(g, params), params.r)
        assert maxima[0] == 1
        for x, size in enumerate(maxima[1:], start=1):
            assert size <= wcol_girth_rule(x, params.q), (x, size)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_subdivided_instances())
    def test_bound_holds_on_random_subdivisions(self, instance):
        params, g = instance
        _assert_good_order(g, weak_order(g, params), params)

    def test_path_graphs(self):
        for n in (2, 5, 12):
            g = path(n)
            params = WcolBoundParams(r=2, q=3)
            _assert_good_order(g, weak_order(g, params), params)

    def test_c9_q4_r3(self):
        g = cycle(9)
        params = WcolBoundParams(r=3, q=4)
        order = weak_order(g, params)
        _assert_good_order(g, order, params)
        assert wcol_under_order(g, order, 3) <= wcol_girth_rule(params.r, params.q) == 6

    def test_subdivided_dodecahedron_q_2r(self):
        r = 2
        g = subdivide(fixture("dodecahedron"), 4 * r - 1)
        params = WcolBoundParams(r=r, q=2 * r)
        order = weak_order(g, params)
        for x in range(r + 1):
            worst = max(len(s) for s in wreach_all(g, order, x))
            assert worst <= x + 2

    def test_not_degenerate_rejected(self):
        with pytest.raises(NotPathDegenerate):
            weak_order(fixture("dodecahedron"), WcolBoundParams(r=2, q=3))

    def test_ear_placement_positions(self):
        # single ear certificate: C9 with q=4 reduces by one ear then leaves
        g = cycle(9)
        params = WcolBoundParams(r=3, q=4)
        from pathdeg.reduction import EAR, exact_ear_certificate, greedy_reduce

        plain, residual = greedy_reduce(g, params.p)
        cert = exact_ear_certificate(plain)
        assert residual.n == 0
        (ear_step,) = [s for s in cert.steps if s.kind == EAR]
        ear = ear_step.vertices
        order = weak_order(g, params).sequence
        w = ear[params.q]
        assert order[0] == w  # midpoint precedes everything
        interiors = list(ear[1:params.q]) + [ear[2 * params.q - z] for z in range(1, params.q)]
        assert list(order[-len(interiors):]) == interiors  # interiors last, by side then index

    def test_leaf_steps_append_at_end(self):
        g = path(4)
        order = weak_order(g, WcolBoundParams(r=1, q=2)).sequence
        # pure leaf certificate: reverse deletion order
        assert len(order) == 4

    def test_pendant_attachment_preserves_goodness(self):
        # goodness survives adding a degree-1 vertex at the end of the order
        g = cycle(9)
        params = WcolBoundParams(r=3, q=4)
        base = weak_order(g, params).sequence
        g2 = build_graph(10, list(g.edges) + [(0, 9)])
        extended = LinearOrder.from_sequence(list(base) + [9])
        _assert_good_order(g2, extended, params)

    def test_isolated_attachment_preserves_goodness(self):
        g = cycle(9)
        params = WcolBoundParams(r=3, q=4)
        base = weak_order(g, params).sequence
        g2 = build_graph(10, list(g.edges))
        extended = LinearOrder.from_sequence(list(base) + [9])
        _assert_good_order(g2, extended, params)

    def test_irregular_degenerate_graphs(self, rng):
        # subdividing random sparse graphs yields certificates mixing
        # ears of every shape with pendant trimmings
        from conftest import random_graph
        from pathdeg import subdivide
        from pathdeg.reduction import is_p_path_degenerate

        done = 0
        for _ in range(200):
            if done >= 20:
                break
            base = random_graph(rng, rng.randint(3, 7), 0.4)
            if base.m == 0:
                continue
            for r, q in ((2, 3), (3, 4), (2, 4)):
                params = WcolBoundParams(r, q)
                g = subdivide(base, params.p)
                if not is_p_path_degenerate(g, params.p).degenerate:
                    continue
                _assert_good_order(g, weak_order(g, params), params)
                done += 1
        assert done >= 20


class TestCompositionBound:
    @pytest.mark.parametrize("r,q,fixture_kind", [
        (2, 3, "cycle"), (3, 4, "cycle"), (2, 4, "cycle"), (3, 6, "cycle"),
        (2, 3, "dodeca"), (3, 4, "dodeca"),
    ])
    def test_rule(self, r, q, fixture_kind):
        params = WcolBoundParams(r, q)
        if fixture_kind == "cycle":
            g = cycle(3 * params.p)
        else:
            g = subdivide(fixture("dodecahedron"), params.p - 1)
        order = weak_order(g, params)
        achieved = wcol_under_order(g, order, r)
        if r < q < 2 * r:
            assert achieved <= r + 2 + math.floor(math.log2((q - 1) / (q - r)))
        else:
            assert achieved <= r + 2

    def test_exact_versus_constructed_on_small(self):
        # wcol_exact is a minimum, so it sits below any constructed order
        g = cycle(7)
        params = WcolBoundParams(r=2, q=3)
        order = weak_order(g, params)
        assert wcol_exact(g, 2) <= wcol_under_order(g, order, 2)
        assert wcol_exact(g, 2) <= wcol_girth_rule(2, params.q)

    def test_exact_meets_target_on_cycles(self):
        # the last vertex of any order sees both cycle neighbors, so
        # wcol_1 of a cycle is exactly 3, meeting the q >= 2r target
        params = WcolBoundParams(r=1, q=2)
        for n in (5, 6, 7):
            g = cycle(n)
            assert wcol_exact(g, 1) == 3 == wcol_girth_rule(1, params.q)
            _assert_good_order(g, weak_order(g, params), params)


def weak_order_from_rewrite(g, params):
    """The order as built before `weak_order` read the plain run: the same
    placement, read off the exact-ear rewrite, in which every ear has
    length exactly 2q."""
    cert = exact_ear_certificate(certificate_or_raise(g, params.p))
    q = params.q
    midpoints, rest = [], []
    for step in reversed(cert.steps):
        if step.kind == EAR:
            ear = step.vertices
            midpoints.append(ear[q])
            rest.extend(ear[1:q])
            rest.extend(ear[2 * q - z] for z in range(1, q))
        else:
            rest.extend(step.vertices)
    midpoints.reverse()
    return LinearOrder.from_sequence(midpoints + rest)


def long_ears_matched(g):
    """Require weak_order to equal the rewrite's order at q = 2..4 and
    r = 1..q-1, or both to refuse g; returns how many ears longer than
    2q the matched orders were built from."""
    long_ears = 0
    for q in range(2, 5):
        for r in range(1, q):
            params = WcolBoundParams(r=r, q=q)
            try:
                expected = weak_order_from_rewrite(g, params)
            except NotPathDegenerate:
                with pytest.raises(NotPathDegenerate):
                    weak_order(g, params)
                continue
            assert weak_order(g, params) == expected, (q, r)
            steps = certificate_or_raise(g, params.p).steps
            long_ears += sum(len(step.vertices) > params.p + 1 for step in steps)
    return long_ears


class TestWeakOrderMatchesRewrite:
    """`weak_order` reads the plain greedy run, placing each ear's tail
    as the leaf steps of its exact-ear rewrite would be placed; the
    order must be the rewrite's, vertex for vertex."""

    @pytest.mark.skipif(not INPUTS.is_file(), reason="needs perfbench/inputs.py beside the tests")
    def test_ladder(self):
        assert sum(long_ears_matched(g) for g in ladder_graphs(5)) > 0

    def test_corpus(self, exhaustive_corpus):
        for g in exhaustive_corpus:
            long_ears_matched(g)

    def test_subdivided_fixtures(self):
        assert sum(long_ears_matched(subdivide(fixture(name), k)) for name in fixture_names() for k in range(9)) > 0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(chain_graphs())
    def test_chain_graphs(self, g):
        long_ears_matched(g)
