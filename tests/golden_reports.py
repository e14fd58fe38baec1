"""Golden CLI reports: the text and `--json` renderings of the graph
commands on every fixture and two graph6 inputs, pinned byte for byte
under tests/golden/.

Each case is an input, a `--subdivide` count and a command.  An input is
a label and the graph spec the command reads.  Beside the fixtures, two
graph6 inputs reach what no fixture does: a 2-core component without a
vertex of degree >= 3, and a loop chain at a hub.  `verify coloring`
reads an artifact the case writes first: the graph's edges in sorted
order colored 1, 2, 3, 1, 2, ..., so it passes on some graphs and fails
on others.  argparse help texts are left out, because their layout
differs between Python versions.

A change that alters a report on purpose rewrites the files with

    PYTHONPATH=src python tests/golden_reports.py

and names each changed file, and why, in CHANGES.md.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from pathdeg import cli, formats, generators
from pathdeg.colorings import EdgeColoring

GOLDEN = Path(__file__).parent / "golden"
SUBDIVIDE = (0, 3)
ARTIFACT = "coloring.txt"
# file stem -> the command's words before the graph options
COMMANDS = {
    "analyze": ("analyze",),
    "check-p3": ("check", "-p", "3"),
    "check-p4-exact": ("check", "-p", "4", "--exact-ears"),
    "color-arb": ("color-arb", "-r", "2"),
    "color-acyclic": ("color-acyclic", "-r", "3"),
    "wcol-order": ("wcol-order", "-r", "1", "-q", "2"),
    "density": ("density",),
    "verify-coloring": ("verify", "coloring", "--input", ARTIFACT, "--threshold", "3", "--proper"),
}
# file label -> graph spec
INPUTS = {name: f"fixture:{name}" for name in generators.fixture_names()}
INPUTS.update({
    # Petersen, a pendant path and a disjoint C4: girth 4, mad 3
    "g6-petersen-c4": "g6:OheA@GUAs??@????_?G?D",
    # theta(3,4,5), a 4-edge loop chain at a hub and a pendant edge: girth 4, mad 16/7
    "g6-theta-loop": "g6:NR_IK?@?I?o??@_?_?O",
})
CASES = [(label, k, stem, as_json) for label in INPUTS for k in SUBDIVIDE
         for stem in COMMANDS for as_json in (False, True)]


def case_id(label: str, k: int, stem: str, as_json: bool) -> str:
    return f"{label}_s{k}_{stem}.{'json' if as_json else 'txt'}"


def _cyclic_coloring(label: str, k: int) -> str:
    g = cli._load_graph(INPUTS[label], k)
    return formats.serialize_coloring(EdgeColoring({e: i % 3 + 1 for i, e in enumerate(sorted(g.edges))}))


def render(label: str, k: int, stem: str, as_json: bool) -> str:
    """The report of one case, as the CLI prints it.  Runs in a temporary
    directory holding the case's artifact, so the command line, which the
    report echoes, names it by a relative path."""
    argv = [*COMMANDS[stem], "--graph", INPUTS[label], "--subdivide", str(k)]
    if as_json:
        argv.append("--json")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path(ARTIFACT).write_text(_cyclic_coloring(label, k))
            return cli.run(argv).render(as_json) + "\n"
        finally:
            os.chdir(here)


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / case_id(*case)).write_text(render(*case))
    print(f"wrote {len(CASES)} reports to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
