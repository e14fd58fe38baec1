import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

import pathdeg
from pathdeg import build_graph, complete, cycle, fixture, path, theta
from pathdeg.formats import builtin_corpus
from pathdeg.graph import chain_graph


def star(k: int):
    return build_graph(k + 1, [(0, i) for i in range(1, k + 1)])


def named_corpus():
    """Curated fixture corpus: named graphs plus assorted small shapes."""
    graphs = {
        "k1": build_graph(1, []),
        "k2": complete(2),
        "k3": complete(3),
        "k4": complete(4),
        "k5": complete(5),
        "p3": path(3),
        "p5": path(5),
        "p7": path(7),
        "c3": cycle(3),
        "c4": cycle(4),
        "c5": cycle(5),
        "c6": cycle(6),
        "c7": cycle(7),
        "c9": cycle(9),
        "star3": star(3),
        "star5": star(5),
        "theta122": theta(1, 2, 2),
        "theta222": theta(2, 2, 2),
        "theta233": theta(2, 3, 3),
        "spider": build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
        "two-triangles": build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
        "petersen": fixture("petersen"),
        "prism": fixture("prism"),
        "k33": fixture("k33"),
        "heawood": fixture("heawood"),
        "mcgee": fixture("mcgee"),
        "tutte-coxeter": fixture("tutte-coxeter"),
        "dodecahedron": fixture("dodecahedron"),
    }
    return graphs


@pytest.fixture(scope="session")
def corpus():
    return named_corpus()


@pytest.fixture(scope="session")
def exhaustive_corpus():
    return builtin_corpus()


def triangle_row(k: int):
    """k triangles in a row, triangle i on (2i, 2i+1, 2i+2): an input that
    needs about k successive ear deletions at p = 2."""
    return build_graph(2 * k + 1, [e for i in range(k) for e in
                                   ((2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2), (2 * i, 2 * i + 2))])


def spoked_wheel(spokes: int, length: int):
    """A wheel whose spokes are paths of `length` edges: hub 0, rim
    1..spokes in cyclic order, then the spoke interiors.  Peeling it at
    p <= length merges the rim chain with one spoke at a time."""
    edges = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    n = spokes + 1
    for rim in range(1, spokes + 1):
        spoke = [0, *range(n, n + length - 1), rim]
        edges += zip(spoke, spoke[1:])
        n += length - 1
    return build_graph(n, edges)


def random_graph(rng: random.Random, n: int, prob: float):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < prob]
    return build_graph(n, edges)


def random_cubic(n, rng):
    """Pairing model, retried until the multigraph is simple."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2])}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return build_graph(n, edges)


@pytest.fixture
def rng():
    return random.Random(20260808)


@st.composite
def trees_and_subdivisions(draw, max_n):
    """A random graph on 3 to 7 vertices with pendant trees hung on it and
    some edges subdivided, relabeled by a random permutation; at most
    max_n vertices in all."""
    n = draw(st.integers(3, 7))
    pairs = list(combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs), min_size=n - 1, max_size=len(pairs))))
    total = n + draw(st.integers(0, min(6, max_n - n)))
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(n, total)]
    subdivided = []
    for u, v in edges:
        k = draw(st.integers(0, min(3, max_n - total)))
        chain = [u, *range(total, total + k), v]
        total += k
        subdivided.extend(zip(chain, chain[1:]))
    perm = draw(st.permutations(range(total)))
    return build_graph(total, [(perm[u], perm[v]) for u, v in subdivided])


@st.composite
def random_graphs(draw, max_n):
    """A G(n, prob) random graph, n uniform in 0..max_n, of expected
    average degree at most 4."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    n = rnd.randint(0, max_n)
    return random_graph(rnd, n, rnd.uniform(0, min(1, 4 / max(n - 1, 1))))


@st.composite
def degenerate_subdivisions(draw, r, min_n=100, max_n=400):
    """A random multigraph on b vertices whose every edge becomes a path
    of length r+1 to r+4, with up to five pendant vertices, relabeled by
    a random permutation: (r+1)-path degenerate, with min_n to max_n
    vertices.  b is drawn so that the base degrees average about 2 to 5."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    size = rnd.randint(min_n, max_n - r - 3)
    b = rnd.randint(max(2, size // (3 * (r + 2))), max(2, size // (r + 2)))
    links = []
    total = b
    while total < size:
        u, v = rnd.sample(range(b), 2)
        length = rnd.randint(r + 1, r + 4)
        links.append((u, v, length))
        total += length - 1
    g = chain_graph(b, links)
    pendants = [(rnd.randrange(g.n + i), g.n + i) for i in range(min(rnd.randint(0, 5), max_n - g.n))]
    perm = list(range(g.n + len(pendants)))
    rnd.shuffle(perm)
    return build_graph(len(perm), [(perm[u], perm[v]) for u, v in sorted(g.edges) + pendants])


def run_capped(code: str) -> str:
    """Run `code` in a child interpreter that caps its own address space at
    1 GiB, so a runaway search fails there instead of exhausting memory."""
    pytest.importorskip("resource")
    paths = [str(Path(pathdeg.__file__).parents[1]), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    prelude = ("import resource\n"
               "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
               "cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)\n"
               "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n")
    proc = subprocess.run([sys.executable, "-c", prelude + code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


@st.composite
def chain_graphs(draw, max_n=60):
    """Branch vertices 0..k-1 joined by up to eight chains of mixed
    lengths (loops of 3 or more edges, parallel chains, at most one chain
    of length 1 per pair, as chain_graph requires), beside up to two
    cycle components, with pendant trees hung on, relabeled by a random
    permutation; at most max_n vertices."""
    k = draw(st.integers(1, 5))
    links = []
    direct = set()
    for _ in range(draw(st.integers(0, 8))):
        u, v = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        low = 3 if u == v else 2 if (u, v) in direct else 1
        length = draw(st.integers(low, low + 5))
        if length == 1:
            direct |= {(u, v), (v, u)}
        links.append((u, v, length))
    rings = draw(st.lists(st.integers(3, 8), max_size=2))
    links += [(k + i, k + i, length) for i, length in enumerate(rings)]
    g = chain_graph(k + len(rings), links)
    n = g.n + draw(st.integers(0, max(0, min(6, max_n - g.n))))
    edges = [*g.edges, *((draw(st.integers(0, v - 1)), v) for v in range(g.n, n))]
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])
