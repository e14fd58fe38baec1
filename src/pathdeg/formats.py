"""Parsers and serializers: edge-list text, graph6, and the line formats
for reduction certificates, edge colorings, and vertex orders.

graph6 follows the standard 6-bit encoding: N(n) header then the upper
triangle of the adjacency matrix in column-major order, padded with zeros
to a multiple of six bits, each chunk offset by 63.
"""

from __future__ import annotations

from .graph import Graph, build_graph, normalize_edge
from .reduction import ReductionSequence, ReductionStep, ISOLATED, LEAF, EAR


# Largest vertex count any parser accepts: the graph6 order limit, also
# checked on edge lists before their adjacency sets are allocated.
MAX_VERTICES = 258047


class FormatError(ValueError):
    pass


def parse_edge_list(text: str) -> Graph:
    """Lines of `u v`, `#` comments; an optional leading `n <count>` line
    declares the vertex count (otherwise max id + 1 is used), at most
    MAX_VERTICES."""
    declared_n = None
    edges = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if g.has_edge(i, j) else 0)
    while len(bits) % 6:
        bits.append(0)
    chunks = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val << 1 | b
        chunks.append(chr(val + 63))
    return _g6_number(g.n) + "".join(chunks)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 string")
    if any(not (63 <= ord(c) <= 126) for c in s):
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
    bits = []
    for c in body:
        val = ord(c) - 63
        bits.extend((val >> s6) & 1 for s6 in (5, 4, 3, 2, 1, 0))
    if any(bits[nbits:]):
        raise FormatError("nonzero padding bits in graph6 string")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return build_graph(n, edges)


def serialize_certificate(cert: ReductionSequence) -> str:
    return "\n".join(step.to_line() for step in cert.steps) + ("\n" if cert.steps else "")


def parse_certificate(text: str, p: int, exact_ears: bool = False) -> ReductionSequence:
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind, args = parts[0], parts[1:]
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
    from .colorings import EdgeColoring

    colors = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"line {lineno}: expected `u v color`, got {raw!r}")
        try:
            u, v, c = (int(x) for x in parts)
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer in {raw!r}") from None
        colors[normalize_edge(u, v)] = c
    return EdgeColoring(colors=colors)


def serialize_order(order) -> str:
    return " ".join(str(v) for v in order.sequence) + "\n"


def parse_order(text: str):
    from .wcol import LinearOrder

    try:
        seq = [int(tok) for tok in text.split()]
    except ValueError:
        raise FormatError("vertex order must be whitespace-separated integers") from None
    return LinearOrder.from_sequence(seq)
