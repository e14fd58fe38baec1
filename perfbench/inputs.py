"""Seeded inputs for the three workloads.

Everything here is plain Python on edge lists, so the inputs do not depend
on the code under test: the same seed gives the same edge lists, graph6
strings and command lines on every run.  Each graph draws from its own
`random.Random` stream keyed by (seed, workload, position), so a smaller
smoke-size run generates a prefix of the full-size inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# ladder: base cubic orders that double, and how many graphs each rung
# holds.  Sorted by cost the 78 ops are the mixed cubic8 graphs, the
# uniform cubic8 graphs, then larger rungs; the counts put the median op
# in the middle of the 26 uniform cubic8 graphs and the tail op (p85, 11
# beyond it) in the middle of the 9 uniform cubic32 graphs, so neither
# quantile jumps between rungs from one seed to the next.
LADDER_RUNGS = {8: 26, 16: 1, 32: 9, 64: 1, 128: 1, 256: 1}
SMOKE_LADDER_RUNGS = {8: 1, 16: 1}
LADDER_SUBDIVISIONS = 3          # the uniform variant, and non-tree edges of the mixed one
MIXED_TREE_COUNTS = (0, 1, 3)    # per-edge counts drawn for spanning-tree edges


@dataclass(frozen=True)
class LadderInput:
    name: str
    rung: int                    # base cubic order
    variant: str                 # "uniform" or "mixed"
    n: int
    edges: tuple[tuple[int, int], ...]


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def bfs(n: int, edges) -> tuple[list[int], set[tuple[int, int]]]:
    """Breadth-first search from vertex 0, neighbours in sorted order:
    the visiting order and the tree edges."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    order, seen, tree = [0], {0}, set()
    for u in order:
        for w in sorted(adj[u]):
            if w not in seen:
                seen.add(w)
                order.append(w)
                tree.add(_norm(u, w))
    return order, tree


def random_cubic(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Connected simple cubic graph from the pairing model: shuffle three
    points per vertex, pair them up, redraw on a loop, a repeated edge or
    a disconnected result.  Vertices are then renumbered in BFS order
    from vertex 0, which keeps the reduction's cost steadier across seeds
    than the raw pairing labels do."""
    if n < 4 or n % 2:
        raise ValueError("a cubic graph needs an even order >= 4")
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for a, b in zip(points[::2], points[1::2]):
            if a == b or _norm(a, b) in edges:
                break
            edges.add(_norm(a, b))
        else:
            order, _ = bfs(n, edges)
            if len(order) == n:
                index = {v: i for i, v in enumerate(order)}
                return sorted(_norm(index[u], index[v]) for u, v in edges)


def subdivide_edges(n: int, edges, counts) -> tuple[int, list[tuple[int, int]]]:
    """Replace edge i by a path through counts[i] new vertices, numbered
    from n upward in edge order."""
    out, nxt = [], n
    for (u, v), k in zip(edges, counts):
        chain = [u, *range(nxt, nxt + k), v]
        nxt += k
        out.extend(_norm(a, b) for a, b in zip(chain, chain[1:]))
    return nxt, out


def ladder_inputs(seed: int, smoke: bool = False) -> list[LadderInput]:
    """Every rung in two variants.  `uniform` subdivides every edge 3
    times.  `mixed` draws each spanning-tree edge's count from {0, 1, 3}
    and subdivides the other edges 3 times: each non-tree edge is then an
    ear of length 4 with degree-2 interior, so deleting those ears one by
    one leaves a tree and every mixed graph is 4-path degenerate.  That
    keeps the whole pipeline running on every rung."""
    out = []
    for n0, replicates in (SMOKE_LADDER_RUNGS if smoke else LADDER_RUNGS).items():
        for rep in range(replicates):
            rng = random.Random(f"{seed}:ladder:{n0}:{rep}")
            base = random_cubic(n0, rng)
            _, tree = bfs(n0, base)
            mixed = [rng.choice(MIXED_TREE_COUNTS) if e in tree else LADDER_SUBDIVISIONS for e in base]
            for variant, counts in (("uniform", [LADDER_SUBDIVISIONS] * len(base)), ("mixed", mixed)):
                n, edges = subdivide_edges(n0, base, counts)
                out.append(LadderInput(f"cubic{n0}.{rep}.{variant}", n0, variant, n, tuple(edges)))
    return out


# ----------------------------------------------------------------- graph6

def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Small-graph graph6 (n <= 62): N(n) then the upper triangle, column
    by column, six bits per character offset by 63."""
    n = ord(text[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 header out of range in {text!r}")
    bits = [(ord(c) - 63) >> s & 1 for c in text[1:] for s in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [p for p, b in zip(pairs, bits) if b]


def encode_graph6(n: int, edges) -> str:
    present = set(edges)
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(63 + int("".join(map(str, bits[k:k + 6])), 2)) for k in range(0, len(bits), 6)]
    return chr(63 + n) + "".join(chars)


@dataclass(frozen=True)
class CorpusInput:
    index: int                   # line of the graph in the data file
    g6: str
    n: int
    edges: frozenset[tuple[int, int]]


SMOKE_CORPUS_SIZE = 300


def corpus_inputs(lines: list[str], seed: int, smoke: bool = False) -> list[CorpusInput]:
    """Every corpus graph with its vertices relabeled by a seeded random
    permutation, re-encoded as graph6, in a seeded random order.
    Relabeling keeps every isomorphism invariant (verdicts, mad), so the
    pinned corpus totals hold for any seed."""
    if smoke:
        lines = lines[:SMOKE_CORPUS_SIZE]
    rng = random.Random(f"{seed}:corpus")
    out = []
    for index, line in enumerate(lines):
        n, edges = decode_graph6(line)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = frozenset(_norm(perm[u], perm[v]) for u, v in edges)
        out.append(CorpusInput(index, encode_graph6(n, relabeled), n, relabeled))
    rng.shuffle(out)
    return out


# -------------------------------------------------------------------- cli

# base fixtures: order, size, girth (the fixture table of the package states
# the same numbers; they are repeated here so the check is independent)
FIXTURES = {
    "dodecahedron": (20, 30, 5),
    "petersen": (10, 15, 5),
    "heawood": (14, 21, 6),
    "mcgee": (24, 36, 7),
    "tutte-coxeter": (30, 45, 8),
}
GRAPH_COMMANDS = (
    ("analyze",),
    ("check", "-p", "4"),
    ("color-arb", "-r", "3"),
    ("color-acyclic", "-r", "3"),
    ("wcol-order", "-r", "1", "-q", "2"),
)
# (fixture, subdivision rungs, commands); tutte-coxeter skips the colorings,
# which take over 5 s each on it.  The scaling fixture's first and last
# rungs give the workload's scaling exponent: petersen's commands are
# cheap enough to repeat, and 3 -> 12 subdivisions spans a 3.5x size step.
CLI_SCALING_FIXTURE = "petersen"
CLI_RUNGS = (
    ("dodecahedron", (3, 6), GRAPH_COMMANDS),
    ("petersen", (3, 6, 12), GRAPH_COMMANDS),
    ("heawood", (3, 6), GRAPH_COMMANDS),
    ("mcgee", (3,), GRAPH_COMMANDS),
    ("tutte-coxeter", (3, 6), (GRAPH_COMMANDS[0], GRAPH_COMMANDS[1], GRAPH_COMMANDS[4])),
)
SMOKE_CLI_RUNGS = (("petersen", (3, 6), GRAPH_COMMANDS),)
# every bounds theorem with valid parameters, with the value the seed
# prints: integer girth threshold, or the float result for the last two
BOUNDS = (
    (("minor-closed", "-d", "6", "-p", "2"), 19),
    (("polynomial", "-a", "1", "-b", "1", "-p", "3"), 85),
    (("subexponential", "-a", "1", "-b", "1", "-p", "3"), 223),
    (("clique", "-k", "5", "-p", "2"), 17),
    (("wcol-rule", "-r", "2", "-q", "3"), 5.0),
    (("lower-poly", "-b", "1", "-p", "3"), 32 / 3),
)
LONG_CYCLE = 1100                # deeper than the default recursion limit
# Commands that take over 0.1 s on the seed (colorings of the dodecahedron
# and McGee rungs, coloring verification, the long cycle) run once per
# pass; the cheaper rest run CHEAP_REPEAT times, so that their per-op
# medians rest on enough samples within one run.
CHEAP_REPEAT = 3
HEAVY_COLORING_FIXTURES = ("dodecahedron", "mcgee")
CUBIC_FILE_ORDER = 8
ARTIFACT_GRAPH = ("dodecahedron", 3)


@dataclass(frozen=True)
class CliCommand:
    argv: tuple[str, ...]
    kind: str                    # first word, or "verify-<target>"
    expect: dict                 # what the report must show
    family: str = ""             # "<fixture>:<k>" for the scaling exponent
    n: int = 0                   # vertex count of the input graph, if any
    repeat: int = CHEAP_REPEAT   # runs per pass




def _graph_expect(kind: str, n: int, m: int, girth: int | None) -> dict:
    if kind == "analyze":
        return {"order": n, "size": m, "girth": girth}
    return {"order": n, "size": m}


def cli_commands(workdir: str, cubic_edges, cubic_n: int, smoke: bool = False) -> list[CliCommand]:
    """The fixed README-style command list.  Paths point into `workdir`,
    where `write_cli_files` puts the edge lists and artifacts."""
    cmds = []
    for name, rungs, commands in SMOKE_CLI_RUNGS if smoke else CLI_RUNGS:
        n0, m0, g0 = FIXTURES[name]
        for k in rungs:
            n, m = n0 + k * m0, m0 * (k + 1)
            graph = ("--graph", f"fixture:{name}", "--subdivide", str(k))
            for words in commands:
                heavy = words[0].startswith("color") and name in HEAVY_COLORING_FIXTURES
                cmds.append(CliCommand((*words, *graph), words[0], _graph_expect(words[0], n, m, g0 * (k + 1)),
                                       family=f"{name}:{k}", n=n, repeat=1 if heavy else CHEAP_REPEAT))
    cubic_graph = ("--graph", f"{workdir}/cubic.txt")
    for words in GRAPH_COMMANDS:
        cmds.append(CliCommand((*words, *cubic_graph), words[0],
                               _graph_expect(words[0], cubic_n, len(cubic_edges), None), n=cubic_n))
    for args, value in BOUNDS:
        cmds.append(CliCommand(("bounds", *args), "bounds", {"value": value}))
    cmds.append(CliCommand(("density", "--nabla", "1/2", "--graph", "fixture:k4"), "density",
                           {"order": 4, "size": 6, "nabla": "3/2"}, n=4))
    name, k = ARTIFACT_GRAPH
    n0, m0, _ = FIXTURES[name]
    art = ("--graph", f"fixture:{name}", "--subdivide", str(k))
    art_n, art_m = n0 + k * m0, m0 * (k + 1)
    for target, extra in (("certificate", ("-p", "4", "--input", f"{workdir}/certificate.txt")),
                          ("coloring", ("--threshold", "4", "--input", f"{workdir}/arboricity.txt")),
                          ("coloring", ("--proper", "--threshold", "3", "--input", f"{workdir}/acyclic.txt")),
                          ("order", ("-r", "1", "-q", "2", "--input", f"{workdir}/order.txt"))):
        cmds.append(CliCommand(("verify", target, *art, *extra), f"verify-{target}",
                               {"order": art_n, "size": art_m}, n=art_n,
                               repeat=1 if target == "coloring" else CHEAP_REPEAT))
    if not smoke:
        # completes on a correct program; the seed's recursive cycle
        # enumeration overflows the interpreter stack here
        cmds.append(CliCommand(("color-arb", "-r", "2", "--graph", f"{workdir}/long_cycle.txt"), "color-arb",
                               {"order": LONG_CYCLE, "size": LONG_CYCLE}, n=LONG_CYCLE, repeat=1))
    return cmds


def cli_edge_lists(seed: int) -> dict[str, tuple[int, list[tuple[int, int]]]]:
    """The two edge-list inputs: a seeded random cubic graph subdivided 3
    times, and a long cycle with seeded vertex labels."""
    rng = random.Random(f"{seed}:cli")
    base = random_cubic(CUBIC_FILE_ORDER, rng)
    cubic = subdivide_edges(CUBIC_FILE_ORDER, base, [LADDER_SUBDIVISIONS] * len(base))
    labels = list(range(LONG_CYCLE))
    rng.shuffle(labels)
    cyc = [_norm(labels[i], labels[(i + 1) % LONG_CYCLE]) for i in range(LONG_CYCLE)]
    return {"cubic.txt": cubic, "long_cycle.txt": (LONG_CYCLE, cyc)}


def edge_list_text(n: int, edges) -> str:
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)
