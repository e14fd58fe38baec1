"""The three workloads: set-up, one operation, and the checks on its
outputs.

An operation that raises is a failure: it is counted, never retried, and
the run goes on.  An output that a checker rejects is a wrong answer: it
raises `WrongAnswer`, which aborts the run with a nonzero exit.  Every
call into pathdeg goes through a module attribute (`reduction.x`, not a
name imported here), so the tracer's wrappers see it.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from pathdeg import cli, colorings, density, formats, generators, graph, reduction, wcol

import inputs

# corpus totals measured on the seed; any relabeling keeps them.  The mad
# sums come from the brute-force oracle `max_subgraph_density_bruteforce`.
# corpus_expected.txt (expect_corpus.py) holds the same per graph.
CORPUS_SIZE = 12113
CORPUS_DEGENERATE = {2: 3290, 3: 184, 4: 76}
CORPUS_MAD_SUM = Fraction(9270103, 210)
CORPUS_MAD_SQUARES = Fraction(980197609, 5880)

SKIPPED = {
    "ladder": "verify_cycle_rainbow is not run on ladder colorings: cycle counts grow exponentially "
              "with the rung; colorings there are checked for totality, palette size and properness",
}


class WrongAnswer(Exception):
    """An output failed its check; the run must stop."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise WrongAnswer(what)


def _check_total(g, coloring, palette: int, what: str) -> None:
    check(set(coloring.colors) == set(g.edges), f"{what}: coloring does not cover exactly the edges")
    check(coloring.num_colors <= palette, f"{what}: {coloring.num_colors} colors, palette {palette}")


def _check_replay(g, cert, what: str) -> None:
    try:
        reduction.replay_certificate(g, cert)
    except reduction.CertificateError as exc:
        raise WrongAnswer(f"{what}: certificate does not replay: {exc}") from None


def _check_witness(g, verdict, p: int, what: str) -> None:
    """The witness must be the subgraph of g induced on the reported
    vertices, and no reduction step may apply to it."""
    vs = verdict.witness_vertices
    index = {v: i for i, v in enumerate(vs)}
    expected = {(index[u], index[v]) for u, v in g.edges if u in index and v in index}
    check(verdict.witness.n == len(vs) and set(verdict.witness.edges) == expected,
          f"{what}: witness is not the induced subgraph on its vertices")
    check(reduction.find_p_reduction(verdict.witness, p) is None, f"{what}: witness is {p}-reducible")


@dataclass
class Workload:
    """Fixed inputs for one run, the operation that consumes one of them,
    and what the report needs to know about them."""

    name: str
    ops: list
    run_op: object
    sizes: list[int]                       # vertex count per op
    scaling: tuple[str, list[int], str, list[int]]   # (small group, its ops, large group, its ops)
    inputs: list[tuple[str, int, int]]     # (name, n, m) per op
    repeats: list[int] | None = None       # runs of each op per pass (default 1)
    end_of_pass: object = None             # checks over a whole pass
    cleanup: object = None

    def __post_init__(self):
        if self.repeats is None:
            self.repeats = [1] * len(self.ops)


# ------------------------------------------------------------------ ladder

def _ladder_op(item) -> None:
    x, g = item
    what = x.name
    verdict = reduction.is_p_path_degenerate(g, 4)
    check(verdict.degenerate, f"{what}: 4-path degenerate by construction, verdict says no")
    _check_replay(g, verdict.certificate, what)
    arb = colorings.arboricity_coloring(g, 3)
    _check_total(g, arb, 4, f"{what} arboricity")
    acyclic = colorings.acyclic_edge_coloring(g, 3)
    _check_total(g, acyclic, max(g.max_degree(), 3), f"{what} acyclic")
    check(colorings.verify_proper(g, acyclic), f"{what}: acyclic coloring is not proper")
    params = wcol.WcolBoundParams(r=1, q=2)
    order = wcol.weak_order(g, params)
    check(sorted(order.ranks) == list(range(g.n)), f"{what}: weak order is not a permutation")
    for x_radius in range(params.r + 1):
        worst = max((len(s) for s in wcol.wreach_all(g, order, x_radius)), default=0)
        check(wcol.wreach_bound_ok(worst, x_radius, params), f"{what}: |WReach_{x_radius}| = {worst} over bound")


def ladder(seed: int, smoke: bool, workdir: Path) -> Workload:
    items = [(x, graph.build_graph(x.n, x.edges)) for x in inputs.ladder_inputs(seed, smoke)]
    below, top = sorted({x.rung for x, _ in items})[-2:]
    scaling = (f"cubic{below}", [i for i, (x, _) in enumerate(items) if x.rung == below],
               f"cubic{top}", [i for i, (x, _) in enumerate(items) if x.rung == top])
    return Workload("ladder", items, _ladder_op, [x.n for x, _ in items], scaling,
                    [(x.name, x.n, len(x.edges)) for x, _ in items])


# ------------------------------------------------------------------ corpus

def _corpus_op(x) -> tuple:
    g = formats.parse_graph6(x.g6)
    check(g.n == x.n and set(g.edges) == x.edges, f"{x.g6}: parse_graph6 returned another graph")
    verdicts = {}
    for p in (2, 3, 4):
        verdict = reduction.is_p_path_degenerate(g, p)
        if verdict.degenerate:
            _check_replay(g, verdict.certificate, f"{x.g6} p={p}")
        else:
            _check_witness(g, verdict, p, f"{x.g6} p={p}")
        verdicts[p] = verdict.degenerate
    # ears of length >= p+1 are ears of length >= p
    check(verdicts[2] >= verdicts[3] >= verdicts[4], f"{x.g6}: verdicts not monotone in p")
    if verdicts[3]:
        arb = colorings.arboricity_coloring(g, 2)
        _check_total(g, arb, 3, f"{x.g6} arboricity")
        check(colorings.verify_cycle_rainbow(g, arb, t=3), f"{x.g6}: arboricity coloring not cycle-rainbow")
    if verdicts[4]:
        acyclic = colorings.acyclic_edge_coloring(g, 3)
        _check_total(g, acyclic, max(g.max_degree(), 3), f"{x.g6} acyclic")
        check(colorings.verify_proper(g, acyclic), f"{x.g6}: acyclic coloring not proper")
        check(colorings.verify_cycle_rainbow(g, acyclic, t=3), f"{x.g6}: acyclic coloring not cycle-rainbow")
    d = density.mad(g)
    if g.m:
        check(Fraction(2 * g.m, g.n) <= d <= g.max_degree(), f"{x.g6}: mad {d} outside [2m/n, max degree]")
    else:
        check(d == 0, f"{x.g6}: edgeless graph with mad {d}")
    return verdicts, d


@functools.cache
def corpus_expected() -> list[tuple[dict[int, bool], Fraction]]:
    """Expected verdicts at p = 2, 3, 4 and mad per data-file line; the
    file must add up to the pinned totals."""
    rows = [line.split() for line in (Path(__file__).parent / "corpus_expected.txt").read_text().splitlines()]
    expected = [({p: bits[i] == "1" for i, p in enumerate((2, 3, 4))}, Fraction(mad)) for bits, mad in rows]
    mads = [d for _, d in expected]
    check(len(expected) == CORPUS_SIZE
          and {p: sum(v[p] for v, _ in expected) for p in (2, 3, 4)} == CORPUS_DEGENERATE
          and sum(mads) == CORPUS_MAD_SUM and sum(d * d for d in mads) == CORPUS_MAD_SQUARES,
          "corpus_expected.txt does not add up to the pinned corpus totals")
    return expected


def _corpus_end_of_pass(items: list, outputs: list) -> dict:
    """Every graph that completed must match its expected verdicts and
    mad; graphs whose operation raised are counted as failures and
    listed by graph6 here."""
    expected = corpus_expected()
    left_out = []
    for x, out in zip(items, outputs):
        if out is None:
            left_out.append(x.g6)
            continue
        verdicts, mad = expected[x.index]
        check(out == (verdicts, mad), f"{x.g6} (line {x.index + 1}): verdicts and mad {out}, "
                                      f"expected {verdicts} and {mad}")
    counts = {p: sum(1 for out in outputs if out is not None and out[0][p]) for p in (2, 3, 4)}
    return {"degenerate": counts, "checked": len(items) - len(left_out), "left_out": left_out}


def corpus(seed: int, smoke: bool, workdir: Path) -> Workload:
    path = Path(reduction.__file__).parent / "data" / "connected_graphs_le8.g6"
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    items = inputs.corpus_inputs(lines, seed, smoke)
    top = max(x.n for x in items)
    scaling = (f"n{top - 1}", [i for i, x in enumerate(items) if x.n == top - 1],
               f"n{top}", [i for i, x in enumerate(items) if x.n == top])
    return Workload("corpus", items, _corpus_op, [x.n for x in items], scaling,
                    [(x.g6, x.n, len(x.edges)) for x in items],
                    end_of_pass=lambda outs: _corpus_end_of_pass(items, outs))


# --------------------------------------------------------------------- cli

class CommandFailed(Exception):
    """A command's report carries an error: the operation raised."""


def _cli_op(cmd) -> dict:
    report = cli.run(list(cmd.argv))
    doc = report.to_dict()
    what = " ".join(cmd.argv)
    if not report.ok:
        if "error" in report.result:
            raise CommandFailed(f"{report.result['error']}: {what}")
        raise WrongAnswer(f"{what}: verification failed: {doc['verification']}")
    exp = cmd.expect
    if cmd.kind == "bounds":
        res = report.result
        value = res.get("integer_girth_threshold", res.get("wcol_bound", res.get("girth_lower_bound")))
        check(value is not None and math.isclose(value, exp["value"], rel_tol=1e-12),
              f"{what}: {value}, expected {exp['value']}")
        return doc
    for key in ("order", "size", "girth"):
        if exp.get(key) is not None:
            check(report.input.get(key) == exp[key], f"{what}: {key} {report.input.get(key)}, expected {exp[key]}")
    if cmd.kind == "density":
        check(report.result.get("nabla") == exp["nabla"], f"{what}: nabla {report.result.get('nabla')}")
    elif cmd.kind != "analyze":
        flags = {"check": ("certificate_replays",), "color-arb": ("cycle_rainbow_ok", "within_palette"),
                 "color-acyclic": ("proper", "cycle_rainbow_ok", "within_palette"),
                 "wcol-order": ("all_within_bound",), "verify-certificate": ("certificate_replays",),
                 "verify-coloring": ("cycle_rainbow_ok",), "verify-order": ("all_within_bound",)}[cmd.kind]
        if "--proper" in cmd.argv:
            flags += ("proper",)
        for flag in flags:
            check(report.verification.get(flag) is True, f"{what}: verification.{flag} is not true")
        if cmd.kind == "check":
            check(report.result.get("degenerate") is True, f"{what}: subdivided cubic graph reported irreducible")
    return doc


def _write_cli_files(seed: int, workdir: Path) -> tuple[int, list]:
    """Edge lists for the file inputs, and artifacts for the read path,
    built by the construction path at set-up."""
    workdir.mkdir(parents=True, exist_ok=True)
    lists = inputs.cli_edge_lists(seed)
    for fname, (n, edges) in lists.items():
        (workdir / fname).write_text(inputs.edge_list_text(n, edges))
    name, k = inputs.ARTIFACT_GRAPH
    g = graph.subdivide(generators.fixture(name), k)
    verdict = reduction.is_p_path_degenerate(g, 4)
    (workdir / "certificate.txt").write_text(formats.serialize_certificate(verdict.certificate))
    (workdir / "arboricity.txt").write_text(formats.serialize_coloring(colorings.arboricity_coloring(g, 3)))
    (workdir / "acyclic.txt").write_text(formats.serialize_coloring(colorings.acyclic_edge_coloring(g, 3)))
    order = wcol.weak_order(g, wcol.WcolBoundParams(r=1, q=2))
    (workdir / "order.txt").write_text(formats.serialize_order(order))
    return lists["cubic.txt"]


def cli_workload(seed: int, smoke: bool, workdir: Path) -> Workload:
    cubic_n, cubic_edges = _write_cli_files(seed, workdir)
    cmds = inputs.cli_commands(str(workdir), cubic_edges, cubic_n, smoke)
    rungs = {name: ks for name, ks, _ in (inputs.SMOKE_CLI_RUNGS if smoke else inputs.CLI_RUNGS)}
    ks = rungs[inputs.CLI_SCALING_FIXTURE]
    small, large = f"{inputs.CLI_SCALING_FIXTURE}:{ks[0]}", f"{inputs.CLI_SCALING_FIXTURE}:{ks[-1]}"
    scaling = (small, [i for i, c in enumerate(cmds) if c.family == small],
               large, [i for i, c in enumerate(cmds) if c.family == large])
    described = [(" ".join(c.argv), c.n, c.expect.get("size", 0)) for c in cmds]

    def cleanup() -> None:
        for child in workdir.iterdir():
            child.unlink()
        os.rmdir(workdir)

    return Workload("cli", cmds, _cli_op, [c.n for c in cmds], scaling, described,
                    repeats=[c.repeat for c in cmds], cleanup=cleanup)


BUILDERS = {"ladder": ladder, "corpus": corpus, "cli": cli_workload}
