#!/usr/bin/env python3
"""Writes corpus_expected.txt: the expected outputs of every corpus graph.

    python3 perfbench/expect_corpus.py

One line per line of `connected_graphs_le8.g6`, in file order: the
verdicts of `is_p_path_degenerate` at p = 2, 3, 4 as three digits (1 =
degenerate), then `mad` as the brute-force oracle
`max_subgraph_density_bruteforce` gives it (twice the largest density).
The verdicts were measured on the seed; the run checks every graph that
completes against its line, and the file's totals against the pinned
counts in workloads.py.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pathdeg import density, formats, reduction  # noqa: E402

DATA = HERE.parent / "src" / "pathdeg" / "data" / "connected_graphs_le8.g6"
EXPECTED = HERE / "corpus_expected.txt"


def main() -> int:
    out = []
    for line in DATA.read_text().splitlines():
        if not line.strip():
            continue
        g = formats.parse_graph6(line)
        verdicts = "".join("1" if reduction.is_p_path_degenerate(g, p).degenerate else "0" for p in (2, 3, 4))
        mad = 2 * density.max_subgraph_density_bruteforce(g) if g.m else 0
        out.append(f"{verdicts} {mad}\n")
    EXPECTED.write_text("".join(out))
    print(f"{len(out)} graphs -> {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
