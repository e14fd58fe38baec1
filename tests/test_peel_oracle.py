"""The peeling engine against the engine it replaced, kept in `peel_oracle`:
identical steps and identical survivors at sizes that the whole-graph
scan of `scan_oracle` cannot reach.  The inputs are the benchmark's
ladder graphs, wheels whose rim chain grows by one merge per spoke, the
20k-vertex graph of `test_scale.py` and Hypothesis chain graphs, whose
loops, parallel chains and cycle components exercise the chains that
`graph.chains_through` joins from its record."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathdeg import build_graph, subdivide
from pathdeg.reduction import _reduce

from conftest import chain_graphs, random_cubic, spoked_wheel
from peel_oracle import peel_by_copy

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def assert_matches_oracle(g, p):
    cert, survivors = _reduce(g, p)
    assert (cert.steps, survivors) == peel_by_copy(g, p)


def ladder_graphs(seed):
    """The ladder workload's graphs for one seed, built from the edge
    lists of `perfbench/inputs.py`, which depends on nothing in pathdeg."""
    spec = importlib.util.spec_from_file_location("ladder_inputs", INPUTS)
    inputs = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(inputs)   # its dataclass looks itself up in sys.modules
    return [build_graph(x.n, x.edges) for x in inputs.ladder_inputs(seed)]


@pytest.mark.skipif(not INPUTS.is_file(), reason="needs perfbench/inputs.py beside the tests")
@pytest.mark.parametrize("seed", [5, 7, 11])
def test_ladder(seed):
    for g in ladder_graphs(seed):
        for p in range(2, 7):
            assert_matches_oracle(g, p)


@pytest.mark.parametrize("spokes", [500, 2000])
def test_wheels(spokes):
    g = spoked_wheel(spokes, 4)
    for p in range(2, 6):
        assert_matches_oracle(g, p)


def test_subdivided_cubic_20k():
    g = subdivide(random_cubic(3636, random.Random(20260808)), 3)
    assert_matches_oracle(g, 4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chain_graphs(), st.integers(2, 6))
def test_chain_graphs(g, p):
    assert_matches_oracle(g, p)
