"""Golden CLI reports: the text and `--json` renderings of the graph
commands on every fixture, pinned byte for byte under tests/golden/.

Each case is a fixture, a `--subdivide` count and a command.
`verify coloring` reads an artifact the case writes first: the graph's
edges in sorted order colored 1, 2, 3, 1, 2, ..., so it passes on some
graphs and fails on others.  argparse help texts are left out, because
their layout differs between Python versions.

A change that alters a report on purpose rewrites the files with

    PYTHONPATH=src python tests/golden_reports.py

and names each changed file, and why, in CHANGES.md.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from pathdeg import cli, formats, generators, graph
from pathdeg.colorings import EdgeColoring

GOLDEN = Path(__file__).parent / "golden"
SUBDIVIDE = (0, 3)
ARTIFACT = "coloring.txt"
# file stem -> the command's words before the graph options
COMMANDS = {
    "analyze": ("analyze",),
    "color-arb": ("color-arb", "-r", "2"),
    "color-acyclic": ("color-acyclic", "-r", "3"),
    "verify-coloring": ("verify", "coloring", "--input", ARTIFACT, "--threshold", "3", "--proper"),
}
CASES = [(name, k, stem, as_json) for name in generators.fixture_names() for k in SUBDIVIDE
         for stem in COMMANDS for as_json in (False, True)]


def case_id(name: str, k: int, stem: str, as_json: bool) -> str:
    return f"{name}_s{k}_{stem}.{'json' if as_json else 'txt'}"


def _cyclic_coloring(name: str, k: int) -> str:
    g = graph.subdivide(generators.fixture(name), k)
    return formats.serialize_coloring(EdgeColoring({e: i % 3 + 1 for i, e in enumerate(sorted(g.edges))}))


def render(name: str, k: int, stem: str, as_json: bool) -> str:
    """The report of one case, as the CLI prints it.  Runs in a temporary
    directory holding the case's artifact, so the command line, which the
    report echoes, names it by a relative path."""
    argv = [*COMMANDS[stem], "--graph", f"fixture:{name}", "--subdivide", str(k)]
    if as_json:
        argv.append("--json")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path(ARTIFACT).write_text(_cyclic_coloring(name, k))
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
