"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at its smallest size, untraced and traced, and checks
the result line against BENCHMARK.json; checks that a seed regenerates
the same inputs and that the random cubic bases are what they claim.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
CORPUS = (ROOT / "src" / "pathdeg" / "data" / "connected_graphs_le8.g6").read_text().split()


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", str(trace), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] != 0 for m in declared)


def test_same_seed_regenerates_identical_inputs():
    assert inputs.ladder_inputs(7) == inputs.ladder_inputs(7)
    assert inputs.corpus_inputs(CORPUS, 7, smoke=True) == inputs.corpus_inputs(CORPUS, 7, smoke=True)
    assert inputs.cli_edge_lists(7) == inputs.cli_edge_lists(7)
    assert inputs.ladder_inputs(7) != inputs.ladder_inputs(8)
    assert inputs.cli_edge_lists(7) != inputs.cli_edge_lists(8)
    # a smoke run builds a prefix of the full inputs
    smoke = inputs.ladder_inputs(7, smoke=True)
    full = {x.name: x for x in inputs.ladder_inputs(7)}
    assert all(full[x.name] == x for x in smoke)


@pytest.mark.parametrize("seed", range(4))
def test_random_cubic_bases_are_simple_connected_and_3_regular(seed):
    for n0 in inputs.LADDER_RUNGS:
        edges = inputs.random_cubic(n0, random.Random(f"{seed}:{n0}"))
        assert all(u < v for u, v in edges), "loop or unnormalized edge"
        assert len(set(edges)) == len(edges) == 3 * n0 // 2, "repeated edge"
        degree = Counter(v for e in edges for v in e)
        assert sorted(degree) == list(range(n0)) and set(degree.values()) == {3}
        assert len(inputs.bfs(n0, edges)[1]) == n0 - 1, "disconnected"


def test_ladder_variants_subdivide_as_described():
    for x in inputs.ladder_inputs(5):
        base_m = 3 * x.rung // 2
        degree = Counter(v for e in x.edges for v in e)
        assert sorted(degree) == list(range(x.n))
        assert all(degree[v] == 3 for v in range(x.rung)) and all(degree[v] == 2 for v in range(x.rung, x.n))
        assert len(x.edges) == base_m + (x.n - x.rung)
        if x.variant == "uniform":
            assert x.n == x.rung + 3 * base_m


def test_graph6_codec_round_trips_the_corpus():
    for line in CORPUS[:2000]:
        n, edges = inputs.decode_graph6(line)
        assert inputs.encode_graph6(n, edges) == line
