"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Tolerances and ranges are pinned here, not configurable."""

import math
import random
import time
from fractions import Fraction

from pathdeg import complete, cycle, fixture, girth, path, subdivide
from pathdeg.bounds import (
    ExpansionParams,
    girth_bound_polynomial,
    lambert_w_minus1,
    polynomial_gamma_upper_bound,
    threshold_beta,
)
from pathdeg.colorings import acyclic_edge_coloring, arboricity_coloring, verify_cycle_rainbow, verify_proper
from pathdeg.density import mad, max_subgraph_density_bruteforce, nabla_r_bruteforce
from pathdeg.enumeration import CONNECTED_COUNTS, canonical_key
from pathdeg.formats import parse_certificate, parse_graph6, serialize_certificate, to_graph6
from pathdeg.graph import is_connected
from pathdeg.reduction import backtrack_degenerate, is_p_path_degenerate, replay_certificate
from pathdeg.wcol import (
    WcolBoundParams,
    wcol_exact,
    wcol_under_order,
    weak_order,
    wreach_all,
    wreach_bound_ok,
)

from conftest import random_graph


def _report(n, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n} ({name}): {status}{' - ' + extra if extra else ''}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_1_cycle_law():
    t0 = time.time()
    ok = True
    for n in range(3, 21):
        for p in range(2, 11):
            verdict = is_p_path_degenerate(cycle(n), p).degenerate
            oracle = backtrack_degenerate(cycle(n), p)
            ok = ok and verdict == (n >= p + 1) == oracle
    elapsed = time.time() - t0
    _report(1, "cycle law", ok and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_2_greedy_equals_backtracking(exhaustive_corpus):
    t0 = time.time()
    by_n = {}
    for g in exhaustive_corpus:
        by_n[g.n] = by_n.get(g.n, 0) + 1
    ok = by_n == CONNECTED_COUNTS and all(is_connected(g) for g in exhaustive_corpus)
    # corpus is exhaustive: with the published counts, distinct canonical
    # keys put every isomorphism class of each order in it exactly once
    ok = ok and len({canonical_key(g) for g in exhaustive_corpus}) == len(exhaustive_corpus)
    for g in exhaustive_corpus:
        for p in (2, 3, 4):
            if is_p_path_degenerate(g, p).degenerate != backtrack_degenerate(g, p):
                ok = False
    rng = random.Random(1854)
    for _ in range(500):
        g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.7))
        for p in (2, 3, 4, 5, 6):
            if is_p_path_degenerate(g, p).degenerate != backtrack_degenerate(g, p):
                ok = False
    elapsed = time.time() - t0
    _report(2, "greedy = backtracking", ok and elapsed < 600.0,
            f"{len(exhaustive_corpus)} corpus graphs + 500 random, {elapsed:.1f}s")


def test_criterion_3_planar_witnesses():
    ok = True
    for p in (2, 3, 4):
        tight = subdivide(fixture("dodecahedron"), p - 2)
        loose = subdivide(fixture("dodecahedron"), p - 1)
        ok = ok and girth(tight) == 5 * (p - 1)
        ok = ok and not is_p_path_degenerate(tight, p).degenerate
        ok = ok and girth(loose) == 5 * p and 5 * p >= 5 * p - 4
        ok = ok and is_p_path_degenerate(loose, p).degenerate
    _report(3, "planar witnesses", ok)


def test_criterion_4_arboricity():
    t0 = time.time()
    ok = True
    for r in (1, 2, 3):
        g = subdivide(fixture("dodecahedron"), r)
        col = arboricity_coloring(g, r)
        ok = ok and col.num_colors == r + 1
        ok = ok and verify_cycle_rainbow(g, col, t=r + 1)
    elapsed = time.time() - t0
    _report(4, "arboricity coloring", ok and elapsed < 120.0, f"{elapsed:.1f}s")


def test_criterion_5_acyclic_index():
    t0 = time.time()
    ok = True
    for r in (3, 4, 5):
        g = subdivide(fixture("dodecahedron"), r)
        col = acyclic_edge_coloring(g, r)
        ok = ok and col.num_colors == max(3, r) == r
        ok = ok and verify_proper(g, col)
        ok = ok and verify_cycle_rainbow(g, col, t=r)
    elapsed = time.time() - t0
    _report(5, "acyclic index", ok and elapsed < 120.0, f"{elapsed:.1f}s")


def test_criterion_6_weak_orders():
    ok = True
    cases = []
    for r, q in ((2, 3), (3, 4), (2, 4), (3, 6)):
        params = WcolBoundParams(r, q)
        cases.append((subdivide(fixture("dodecahedron"), params.p - 1), params))
        cases.append((cycle(3 * params.p), params))
    for g, params in cases:
        order = weak_order(g, params)
        for x in range(params.r + 1):
            worst = max(len(s) for s in wreach_all(g, order, x))
            ok = ok and wreach_bound_ok(worst, x, params)
        achieved = wcol_under_order(g, order, params.r)
        if params.r < params.q < 2 * params.r:
            rule = params.r + 2 + math.floor(math.log2((params.q - 1) / (params.q - params.r)))
        else:
            rule = params.r + 2
        ok = ok and achieved <= rule
    _report(6, "weak orders", ok)


def test_criterion_7_wcol_bruteforce_consistency(corpus):
    ok = True
    small = {name: g for name, g in corpus.items() if 1 <= g.n <= 7}
    checked = 0
    for g in small.values():
        for r in (1, 2):
            exact = wcol_exact(g, r)
            for q in (r + 1, 2 * r):
                params = WcolBoundParams(r, q)
                if not is_p_path_degenerate(g, params.p).degenerate:
                    continue
                constructed = weak_order(g, params)
                ok = ok and exact <= wcol_under_order(g, constructed, r)
                checked += 1
    ok = ok and wcol_exact(path(3), 1) == 2
    ok = ok and wcol_exact(complete(3), 1) == 3
    _report(7, "wcol brute-force consistency", ok and checked > 10,
            f"{checked} (graph, r, q) comparisons")


def test_criterion_8_numerics():
    ok = True
    rng = random.Random(99)
    worst = 0.0
    for _ in range(1000):
        t = -math.exp(rng.uniform(math.log(1e-13), math.log(1 / math.e) - 1e-12))
        w = lambert_w_minus1(t)
        worst = max(worst, abs(w * math.exp(w) - t))
    ok = ok and worst <= 1e-12
    for u in (0.01, 0.1, 1, 5, 10, 50):
        w = lambert_w_minus1(-math.exp(-u - 1.0))
        ok = ok and -1 - math.sqrt(2 * u) - u < w < -1 - math.sqrt(2 * u) - (2 / 3) * u
    lo, hi = math.e, 100.0
    for _ in range(300):
        mid = (lo + hi) / 2
        if mid - math.log(mid) - 2 < 0:
            lo = mid
        else:
            hi = mid
    ok = ok and abs(threshold_beta(1, 2) - (lo + hi) / 2) <= 1e-9
    params = ExpansionParams(1, 1)
    from test_bounds import scan_gamma_oracle

    for p in (2, 3, 10, 100):
        res = girth_bound_polynomial(params, p)
        ok = ok and res.threshold == max(7, scan_gamma_oracle(1, 1, p)) * (p - 1)
    p = 2
    while p <= 10 ** 6:
        w = lambert_w_minus1(-math.exp(-params.log_acp(p)))
        gamma = 2 * math.floor(-2.0 * params.log_slope * w) + 4
        ok = ok and gamma < polynomial_gamma_upper_bound(params, p)
        p = max(p + 1, int(p * 1.3))
    _report(8, "numerics", ok, f"worst W residual {worst:.2e}")


def test_criterion_9_density(corpus):
    t0 = time.time()
    ok = True
    for g in corpus.values():
        if 1 <= g.n <= 10:
            ok = ok and mad(g) == (2 * max_subgraph_density_bruteforce(g) if g.m else Fraction(0))
    ok = ok and nabla_r_bruteforce(complete(4), 0) == Fraction(3, 2)
    ok = ok and nabla_r_bruteforce(cycle(6), 1) == 1
    for r in (0, Fraction(1, 2), 1):
        for name in ("k4", "prism", "k33"):
            value = nabla_r_bruteforce(fixture(name), r)
            ok = ok and float(value) <= 3 * 2 ** (float(r) - 1) + 1e-12
    rng = random.Random(2718)
    checked = 0
    while checked < 50:
        if checked < 35:
            g = random_graph(rng, rng.randint(2, 5), 0.5)
            p, r = rng.choice([(3, 0), (4, 0)])
            if g.m > (4 if p == 3 else 3):
                continue
        else:
            g = random_graph(rng, rng.randint(2, 4), 0.6)
            if g.m > 4:
                continue
            p, r = 3, rng.choice([Fraction(1, 2), 1])
        if g.m == 0:
            continue
        # exact transfer needs a dense base; paths of leftover chain
        # vertices cap the subdivided density at 1 for sparse ones
        depth = -(-Fraction(r) // (p - 1))
        bound = max(Fraction(1), nabla_r_bruteforce(g, depth))
        if nabla_r_bruteforce(subdivide(g, p - 2), r) > bound:
            ok = False
        checked += 1
    elapsed = time.time() - t0
    _report(9, "density", ok and elapsed < 300.0, f"{elapsed:.1f}s")


def test_criterion_10_certificates_and_formats(corpus, exhaustive_corpus):
    ok = True
    emitted = 0
    for g in list(corpus.values()):
        for p in (2, 4):
            verdict = is_p_path_degenerate(g, p)
            if not verdict.degenerate:
                continue
            text = serialize_certificate(verdict.certificate)
            replay_certificate(g, parse_certificate(text, p=p))
            emitted += 1
    rng = random.Random(31)
    for g in rng.sample(exhaustive_corpus, 200):
        verdict = is_p_path_degenerate(g, 2)
        if verdict.degenerate:
            text = serialize_certificate(verdict.certificate)
            replay_certificate(g, parse_certificate(text, p=2))
            emitted += 1
    # byte-exact graph6 round trips across the whole shipped corpus
    from importlib import resources

    raw = resources.files("pathdeg").joinpath("data/connected_graphs_le8.g6").read_text()
    lines = [line for line in raw.splitlines() if line.strip()]
    for line in lines:
        if to_graph6(parse_graph6(line)) != line:
            ok = False
    for g in corpus.values():
        if to_graph6(parse_graph6(to_graph6(g))) != to_graph6(g):
            ok = False
    _report(10, "certificates and formats", ok and emitted > 50,
            f"{emitted} certificates replayed, {len(lines)} graph6 round trips")
