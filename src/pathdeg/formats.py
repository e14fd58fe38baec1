"""Parsers and serializers: edge-list text, graph6, and the line formats
for reduction certificates, edge colorings, and vertex orders; and the
shipped corpus, every connected graph on at most 8 vertices in graph6.

graph6 follows the standard 6-bit encoding: N(n) header then the upper
triangle of the adjacency matrix in column-major order, padded with zeros
to a multiple of six bits, each chunk offset by 63.  Both directions use
one bit index, k = j(j-1)/2 + i for the pair i < j, and touch only the
bits of edges, so memory is proportional to the graph6 string, not to
the n(n-1)/2 vertex pairs.

`builtin_corpus` parses data/connected_graphs_le8.g6.  The tests prove
the file complete (each order holds every connected graph once, up to
isomorphism); the generator that wrote it is in git history.
"""

from __future__ import annotations

import math
import re
from importlib import resources

from .colorings import EdgeColoring
from .graph import Graph, build_graph, normalize_edge
from .reduction import ReductionSequence, ReductionStep, ISOLATED, LEAF, EAR
from .wcol import LinearOrder


# Largest vertex count any parser accepts: the graph6 order limit, also
# checked on edge lists before their adjacency sets are allocated.
MAX_VERTICES = 258047


class FormatError(ValueError):
    pass


def _rows(text: str):
    """Yield (line number, raw line, fields) for each line of `text` that
    keeps a field once its `#` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, raw, parts


def parse_edge_list(text: str) -> Graph:
    """Lines of `u v`, `#` comments; an optional leading `n <count>` line
    declares the vertex count (otherwise max id + 1 is used), at most
    MAX_VERTICES."""
    declared_n = None
    edges = []
    max_id = -1
    for lineno, raw, parts in _rows(text):
        if parts[0] == "n" and declared_n is None and not edges:
            if len(parts) != 2 or not parts[1].isdigit():
                raise FormatError(f"line {lineno}: malformed vertex-count line {raw!r}")
            declared_n = int(parts[1])
            continue
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected `u v`, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if u == v:
            raise FormatError(f"line {lineno}: self-loop {u}")
        if u < 0 or v < 0:
            raise FormatError(f"line {lineno}: negative vertex id in {raw!r}")
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = declared_n if declared_n is not None else max_id + 1
    if max_id >= n:
        raise FormatError(f"vertex id {max_id} exceeds declared count {n}")
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return build_graph(n, edges)


def serialize_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def _g6_number(n: int) -> str:
    if n < 0:
        raise FormatError("negative order")
    if n <= 62:
        return chr(n + 63)
    if n <= MAX_VERTICES:
        return chr(126) + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    raise FormatError(f"graph6 supports at most {MAX_VERTICES} vertices here")


def to_graph6(g: Graph) -> str:
    """The graph6 string of g: bit k = j(j-1)/2 + i of the body is the pair
    i < j, and each edge adds its bit to a body of '?' (a zero chunk)."""
    nbits = g.n * (g.n - 1) // 2
    body = bytearray(b"?" * ((nbits + 5) // 6))
    for i, j in g.edges:
        k = j * (j - 1) // 2 + i
        body[k // 6] += 32 >> k % 6
    return _g6_number(g.n) + body.decode()


_OUT_OF_RANGE = re.compile("[^?-~]")  # outside chr(63)..chr(126)
_NONZERO_CHUNK = re.compile("[^?]")


def parse_graph6(text: str) -> Graph:
    """The graph of a graph6 string, with or without its `>>graph6<<`
    header.  Only the body's nonzero chunks are read; a set bit k is the
    pair i < j with j the largest integer such that j(j-1)/2 <= k, and
    i = k - j(j-1)/2."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 string")
    if _OUT_OF_RANGE.search(s):
        raise FormatError("graph6 byte out of range 63..126")
    if s[0] == chr(126):
        if len(s) >= 2 and s[1] == chr(126):
            raise FormatError(f"graph6 orders above {MAX_VERTICES} not supported")
        if len(s) < 4:
            raise FormatError("truncated graph6 order")
        n = 0
        for c in s[1:4]:
            n = n << 6 | (ord(c) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 bit vector has {len(body)} bytes, expected {need}")
    edges = []
    for chunk in _NONZERO_CHUNK.finditer(body):
        q = chunk.start()
        val = ord(body[q]) - 63
        for r in range(6):
            if val & 32 >> r:
                k = 6 * q + r
                if k >= nbits:
                    raise FormatError("nonzero padding bits in graph6 string")
                j = (1 + math.isqrt(8 * k + 1)) // 2
                edges.append((k - j * (j - 1) // 2, j))
    return build_graph(n, edges)


def builtin_corpus() -> list[Graph]:
    """The shipped corpus: every connected graph on at most 8 vertices."""
    text = resources.files("pathdeg").joinpath("data/connected_graphs_le8.g6").read_text()
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


def serialize_certificate(cert: ReductionSequence) -> str:
    return "\n".join(step.to_line() for step in cert.steps) + ("\n" if cert.steps else "")


def parse_certificate(text: str, p: int, exact_ears: bool = False) -> ReductionSequence:
    steps = []
    for lineno, raw, parts in _rows(text):
        kind, *args = parts
        try:
            vertices = tuple(int(a) for a in args)
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        if kind in (ISOLATED, LEAF):
            if len(vertices) != 1:
                raise FormatError(f"line {lineno}: {kind} takes exactly one vertex")
        elif kind == EAR:
            if len(vertices) < 3:
                raise FormatError(f"line {lineno}: ear needs at least 3 vertices")
        else:
            raise FormatError(f"line {lineno}: unknown step kind {kind!r}")
        steps.append(ReductionStep(kind, vertices))
    return ReductionSequence(p=p, steps=tuple(steps), exact_ears=exact_ears)


def serialize_coloring(coloring) -> str:
    lines = [f"{u} {v} {c}" for (u, v), c in sorted(coloring.colors.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_coloring(text: str):
    colors = {}
    for lineno, raw, parts in _rows(text):
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected `u v color`, got {raw!r}")
        try:
            u, v, c = (int(x) for x in parts)
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer in {raw!r}") from None
        edge = normalize_edge(u, v)
        if edge in colors:
            raise FormatError(f"line {lineno}: edge {edge[0]} {edge[1]} listed twice")
        colors[edge] = c
    return EdgeColoring(colors=colors)


def serialize_order(order) -> str:
    return " ".join(str(v) for v in order.sequence) + "\n"


def parse_order(text: str):
    try:
        seq = [int(tok) for tok in text.split()]
    except ValueError:
        raise FormatError("vertex order must be whitespace-separated integers") from None
    return LinearOrder.from_sequence(seq)
