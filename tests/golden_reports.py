"""Golden CLI reports: the text and `--json` renderings of the commands
on every fixture and two graph6 inputs, and of every `bounds` theorem,
pinned byte for byte under tests/golden/.

A graph case is an input, a `--subdivide` count and a command.  An input
is a label and the graph spec the command reads.  Beside the fixtures,
two graph6 inputs reach what no fixture does: a 2-core component without
a vertex of degree >= 3, and a loop chain at a hub.  A `verify` case
reads an artifact that the case writes first (see ARTIFACTS), and each
artifact has a tampered twin whose report must fail.  The `bounds` cases
run each theorem at its defaults and at corner cases, each beside the
reason it is pinned.  The CI floor-smoke job runs `--check` under the
oldest supported Python, so every report holds there too.  argparse help
texts are left out, because their layout differs between Python
versions.

A change that alters a report on purpose rewrites the files with

    PYTHONPATH=src python tests/golden_reports.py

and names each changed file, and why, in CHANGES.md.  With `--check`
the script rewrites nothing: it renders every case, compares it with
its file, and exits 1 naming each report that differs.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from pathdeg import cli, formats, generators
from pathdeg.colorings import EdgeColoring
from pathdeg.reduction import is_p_path_degenerate
from pathdeg.wcol import WcolBoundParams, weak_order

GOLDEN = Path(__file__).parent / "golden"
SUBDIVIDE = (0, 3)
# file stem -> the command's words before the graph options
COMMANDS = {
    "analyze": ("analyze",),
    "check-p3": ("check", "-p", "3"),
    "check-p3-oracle": ("check", "-p", "3", "--oracle"),
    "check-p4-exact": ("check", "-p", "4", "--exact-ears"),
    "color-arb": ("color-arb", "-r", "2"),
    "color-acyclic": ("color-acyclic", "-r", "3"),
    "wcol-order": ("wcol-order", "-r", "1", "-q", "2"),
    "density": ("density",),
    "verify-coloring": ("verify", "coloring", "--input", "coloring.txt", "--threshold", "3", "--proper"),
}
# the certificate at p = 3 and the order at r = 1, q = 2 exist on every
# input at --subdivide 3 only
VERIFY_SUBDIVIDED = {
    "verify-certificate": ("verify", "certificate", "--input", "certificate.txt", "-p", "3"),
    "verify-certificate-tampered": ("verify", "certificate", "--input", "certificate-tampered.txt", "-p", "3"),
    "verify-order": ("verify", "order", "--input", "order.txt", "-r", "1", "-q", "2"),
    "verify-order-tampered": ("verify", "order", "--input", "order-tampered.txt", "-r", "1", "-q", "2"),
}
# file label -> graph spec
INPUTS = {name: f"fixture:{name}" for name in generators.fixture_names()}
INPUTS.update({
    # Petersen, a pendant path and a disjoint C4: girth 4, mad 3; the C4
    # is a closed chain of the chain skeleton, a core component without
    # a branch vertex
    "g6-petersen-c4": "g6:OheA@GUAs??@????_?G?D",
    # theta(3,4,5), a 4-edge loop chain at a hub and a pendant edge: girth 4, mad 16/7;
    # the loop is a closed chain at a branch vertex
    "g6-theta-loop": "g6:NR_IK?@?I?o??@_?_?O",
})
BOUNDS = [
    *((theorem,) for theorem in cli._BOUNDS),
    # the envelope is taken in decimal, and localcontext() takes keyword
    # arguments only from Python 3.11
    ("subexponential", "-a", "1", "-b", "100", "-p", "2"),
    # (24*sqrt(2)*a)**(1/b) overflows here; the threshold is taken in logarithms
    ("polynomial", "-a", "1e300", "-b", "0.001", "-p", "2"),
    # W_-1 past half the float range: u = log(A*C*p) - 1 is about 1e308
    # here, so 2u would overflow
    ("polynomial", "-a", "1e300", "-b", "7e-306", "-p", "2"),
    # A*C*p < e: x > A*log(x) + B holds for every x, so the threshold is 7*(p-1)
    ("polynomial", "-a", "0.01", "-b", "1", "-p", "2"),
    # (p-1)*b is finite here, the witness girth is not: a ValueError,
    # never an Infinity, in strict JSON
    ("lower-poly", "-b", "1e307", "-p", "3"),
]


def _certificate(g) -> str:
    return formats.serialize_certificate(is_p_path_degenerate(g, 3).certificate)


def _order(g) -> list[int]:
    return list(weak_order(g, WcolBoundParams(r=1, q=2)).sequence)


def _order_tampered(g) -> list[int]:
    """The order with a vertex of maximum degree moved last, where all its
    neighbours come before it: |WReach_1| = 1 + degree > 3 = its bound."""
    seq = _order(g)
    v = max(range(g.n), key=g.degree)
    seq.remove(v)
    return [*seq, v]


# artifact file name -> its text, built from the case's graph
ARTIFACTS = {
    # the graph's edges in sorted order colored 1, 2, 3, 1, 2, ..., which
    # passes on some graphs and fails on others
    "coloring.txt": lambda g: formats.serialize_coloring(
        EdgeColoring({e: i % 3 + 1 for i, e in enumerate(sorted(g.edges))})),
    "certificate.txt": _certificate,
    # without its last step, the replay leaves a vertex behind
    "certificate-tampered.txt": lambda g: "".join(_certificate(g).splitlines(keepends=True)[:-1]),
    "order.txt": lambda g: " ".join(map(str, _order(g))) + "\n",
    "order-tampered.txt": lambda g: " ".join(map(str, _order_tampered(g))) + "\n",
}


def _cases() -> list[tuple[str, tuple[str, ...], bool]]:
    words = []
    for label, spec in INPUTS.items():
        for k in SUBDIVIDE:
            commands = {**COMMANDS, **(VERIFY_SUBDIVIDED if k else {})}
            for stem, command in commands.items():
                words.append((f"{label}_s{k}_{stem}", (*command, "--graph", spec, "--subdivide", str(k))))
    for argv in BOUNDS:
        theorem, *options = argv
        flags = [f"{flag.lstrip('-')}{value}" for flag, value in zip(options[::2], options[1::2])]
        words.append(("_".join(["bounds", theorem, *flags]), ("bounds", *argv)))
    return [(stem, argv, as_json) for stem, argv in words for as_json in (False, True)]


# (file stem, command line without --json, as_json)
CASES = _cases()


def case_id(stem: str, argv: tuple[str, ...], as_json: bool) -> str:
    return f"{stem}.{'json' if as_json else 'txt'}"


def render(stem: str, argv: tuple[str, ...], as_json: bool) -> str:
    """The report of one case, as the CLI prints it.  Runs in a temporary
    directory holding the artifact that the case's `--input` names, so
    the command line, which the report echoes, names it by a relative
    path."""
    argv = [*argv, "--json"] if as_json else list(argv)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if "--input" in argv:
                g = cli._load_graph(argv[argv.index("--graph") + 1], int(argv[argv.index("--subdivide") + 1]))
                name = argv[argv.index("--input") + 1]
                Path(name).write_text(ARTIFACTS[name](g))
            return cli.run(argv).render(as_json) + "\n"
        finally:
            os.chdir(here)


def main(argv: list[str]) -> int:
    if argv == ["--check"]:
        differ = [case_id(*case) for case in CASES if render(*case) != (GOLDEN / case_id(*case)).read_text()]
        print(f"{len(CASES) - len(differ)} of {len(CASES)} reports match", *differ, sep="\n")
        return 1 if differ else 0
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / case_id(*case)).write_text(render(*case))
    print(f"wrote {len(CASES)} reports to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
