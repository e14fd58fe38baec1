import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pathdeg import build_graph, complete, cycle, formats, path
from pathdeg.colorings import EdgeColoring, arboricity_coloring
from pathdeg.formats import (
    FormatError,
    parse_certificate,
    parse_coloring,
    parse_edge_list,
    parse_graph6,
    parse_order,
    serialize_certificate,
    serialize_coloring,
    serialize_edge_list,
    serialize_order,
    to_graph6,
)
from pathdeg.reduction import exact_ear_certificate, is_p_path_degenerate, replay_certificate
from pathdeg.wcol import LinearOrder, WcolBoundParams, weak_order

from conftest import degenerate_subdivisions, random_graphs, run_capped, trees_and_subdivisions


class TestEdgeList:
    def test_basic(self):
        g = parse_edge_list("0 1\n1 2")
        assert g.n == 3 and g.m == 2

    def test_comments_and_blanks(self):
        g = parse_edge_list("# comment\n\n0 1  # trailing\n")
        assert g.n == 2 and g.m == 1

    def test_declared_count(self):
        g = parse_edge_list("n 6\n0 1\n4 5")
        assert g.n == 6

    def test_self_loop_with_line_number(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_edge_list("0 0")

    def test_malformed_line_number(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_edge_list("0 1\n1 2\n2 x")

    def test_round_trip(self, corpus):
        for g in corpus.values():
            assert parse_edge_list(serialize_edge_list(g)).edges == g.edges

    @pytest.mark.parametrize("text", ["n 1000000000\n0 1\n", "0 1\n1 1000000000\n"])
    def test_vertex_count_capped_before_allocation(self, text, monkeypatch):
        def build_graph(n, edges):
            raise AssertionError(f"would allocate {n} adjacency sets")

        monkeypatch.setattr(formats, "build_graph", build_graph)
        with pytest.raises(FormatError, match=f"limit of {formats.MAX_VERTICES}"):
            parse_edge_list(text)

    def test_vertex_count_at_cap_accepted(self, monkeypatch):
        monkeypatch.setattr(formats, "build_graph", lambda n, edges: n)
        assert parse_edge_list(f"n {formats.MAX_VERTICES}\n0 1\n") == formats.MAX_VERTICES


class TestGraph6:
    def test_k2(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges == frozenset({(0, 1)})

    def test_k3(self):
        g = parse_graph6("Bw")
        assert g.n == 3 and g.m == 3

    def test_encode_known(self):
        assert to_graph6(complete(2)) == "A_"
        assert to_graph6(complete(3)) == "Bw"

    def test_header_stripped(self):
        assert parse_graph6(">>graph6<<A_").m == 1

    def test_round_trip_fixtures(self, corpus):
        for g in corpus.values():
            assert parse_graph6(to_graph6(g)).edges == g.edges
            assert to_graph6(parse_graph6(to_graph6(g))) == to_graph6(g)

    def test_against_reference_encoder(self, corpus):
        nx = pytest.importorskip("networkx")
        for g in corpus.values():
            ref = nx.Graph()
            ref.add_nodes_from(range(g.n))
            ref.add_edges_from(g.edges)
            expected = nx.to_graph6_bytes(ref, header=False).decode().strip()
            assert to_graph6(g) == expected
            decoded = nx.from_graph6_bytes(to_graph6(g).encode())
            assert frozenset(map(lambda e: (min(e), max(e)), decoded.edges())) == g.edges

    @pytest.mark.parametrize("density", [0.05, 0.7])
    @pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64, 300])
    def test_against_networkx_across_header_sizes(self, n, density):
        # the one-byte order header ends at n = 62, the four-byte one starts at 63
        nx = pytest.importorskip("networkx")
        rng = random.Random(f"{n}:{density}")
        g = build_graph(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < density])
        ref = nx.Graph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(g.edges)
        expected = nx.to_graph6_bytes(ref, header=False).decode().strip()
        assert to_graph6(g) == expected
        assert parse_graph6(expected) == g
        decoded = nx.from_graph6_bytes(to_graph6(g).encode())
        assert decoded.number_of_nodes() == n
        assert frozenset((min(e), max(e)) for e in decoded.edges()) == g.edges

    def test_encode_under_memory_cap(self):
        # 2e8 vertex pairs: one list entry per pair would not fit in 1 GiB
        out = run_capped("from pathdeg import formats, path\n"
                         "print(len(formats.to_graph6(path(20000))))\n")
        assert int(out) == 4 + (20000 * 19999 // 2 + 5) // 6

    def test_decode_under_memory_cap(self):
        out = run_capped("from pathdeg import formats, path\n"
                         "text = formats.to_graph6(path(17000))\n"
                         "print(formats.parse_graph6(text) == path(17000))\n")
        assert out.strip() == "True"

    def test_large_order_header(self):
        g = path(80)
        assert parse_graph6(to_graph6(g)).edges == g.edges

    def test_empty_and_singleton(self):
        for n in (0, 1):
            g = build_graph(n, [])
            assert parse_graph6(to_graph6(g)).n == n

    def test_bad_byte(self):
        with pytest.raises(FormatError, match="range"):
            parse_graph6("A!")

    def test_truncated(self):
        with pytest.raises(FormatError, match="expected"):
            parse_graph6("D")  # order 5 needs ceil(10/6) = 2 body bytes

    def test_trailing_garbage(self):
        with pytest.raises(FormatError):
            parse_graph6("A__")

    def test_nonzero_padding(self):
        with pytest.raises(FormatError, match="padding"):
            parse_graph6("A" + chr(63 + 1))  # lowest bit is padding for n=2


class TestCertificateLines:
    def test_round_trip(self):
        g = cycle(9)
        cert = is_p_path_degenerate(g, 4).certificate
        text = serialize_certificate(cert)
        parsed = parse_certificate(text, p=4)
        assert parsed.steps == cert.steps
        replay_certificate(g, parsed)

    def test_line_shapes(self):
        text = "I 3\nL 2\nE 0 1 2 3\n"
        cert = parse_certificate(text, p=3)
        assert [s.kind for s in cert.steps] == ["I", "L", "E"]
        assert serialize_certificate(cert) == text

    def test_bad_kind(self):
        with pytest.raises(FormatError, match="unknown step kind"):
            parse_certificate("X 1", p=2)

    def test_short_ear_line(self):
        with pytest.raises(FormatError, match="at least 3"):
            parse_certificate("E 0 1", p=2)

    def test_isolated_arity(self):
        with pytest.raises(FormatError):
            parse_certificate("I 1 2", p=2)


class TestColoringLines:
    def test_round_trip(self):
        g = cycle(6)
        col = arboricity_coloring(g, 2)
        text = serialize_coloring(col)
        parsed = parse_coloring(text)
        assert parsed.colors == col.colors

    def test_format(self):
        parsed = parse_coloring("0 1 3\n2 1 1\n")
        assert parsed.colors == {(0, 1): 3, (1, 2): 1}

    def test_malformed(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_coloring("0 1")

    def test_edge_listed_twice(self):
        with pytest.raises(FormatError, match="line 4: edge 0 1 listed twice"):
            parse_coloring("0 1 2\n1 2 2\n0 2 3\n0 1 1\n")
        with pytest.raises(FormatError, match="line 2: edge 1 2 listed twice"):
            parse_coloring("2 1 1\n1 2 1\n")


class TestOrderLines:
    def test_round_trip(self):
        g = cycle(9)
        order = weak_order(g, WcolBoundParams(3, 4))
        text = serialize_order(order)
        assert parse_order(text).ranks == order.ranks

    def test_malformed(self):
        with pytest.raises(FormatError):
            parse_order("0 one 2")

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            parse_order("0 0 1")


class TestRoundTrips:
    # random graphs of up to 100 vertices meet graph6's four-byte order header (n > 62)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(trees_and_subdivisions(max_n=40), random_graphs(max_n=100))
    def test_graph6_and_edge_list(self, tree, g):
        for g in (tree, g):
            assert parse_graph6(to_graph6(g)) == g
            assert parse_edge_list(serialize_edge_list(g)) == g

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(trees_and_subdivisions(max_n=40), degenerate_subdivisions(r=3, min_n=20, max_n=100))
    def test_certificates_in_both_ear_modes(self, tree, g):
        for h, p, exact_ears in product((tree, g), (2, 3, 4), (False, True)):
            verdict = is_p_path_degenerate(h, p)
            if verdict.degenerate:
                cert = exact_ear_certificate(verdict.certificate) if exact_ears else verdict.certificate
                parsed = parse_certificate(serialize_certificate(cert), p=p, exact_ears=exact_ears)
                assert parsed == cert
                replay_certificate(h, parsed)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(degenerate_subdivisions(r=2, min_n=20, max_n=100), random_graphs(max_n=100), st.integers(0, 2**32))
    def test_colorings(self, g, h, seed):
        rnd = random.Random(seed)
        drawn = EdgeColoring({e: rnd.randint(1, 9) for e in sorted(h.edges)})
        for coloring in (arboricity_coloring(g, 2), drawn):
            assert parse_coloring(serialize_coloring(coloring)) == coloring

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 100).flatmap(lambda n: st.permutations(range(n))))
    def test_orders(self, seq):
        order = LinearOrder.from_sequence(seq)
        assert parse_order(serialize_order(order)) == order


def test_import_pathdeg_leaves_the_format_stack_unloaded():
    # the package's top level needs no parser: the CLI loads formats
    loaded = set(run_capped("import sys, pathdeg\nprint(*sys.modules)").split())
    assert "pathdeg.density" in loaded
    assert "pathdeg.formats" not in loaded and "pathdeg.enumeration" not in loaded
