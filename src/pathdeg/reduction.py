"""The ear-reduction engine.

A step removes an isolated vertex, a degree-1 vertex, or the interior of a
strict ear of length at least p.  A graph is p-path degenerate when some
sequence of steps empties it; since any subgraph of a degenerate graph is
degenerate, greedy maximal reduction decides the property, and the
order-insensitive backtracking oracle here exists to keep that assumption
honest.  Each step, a tuple, records the vertices it deletes, and an
independent checker replays a certificate step by step against the
graph's own adjacency, read through a live flag and a degree count per
vertex: O(n + m) in all, with no copy of the graph.

The greedy engine takes the smallest applicable step every time: an
isolated vertex before a leaf, each the smallest such vertex, and an ear
only when neither exists, the one with the smallest key (endpoint pair,
then interior read from the smaller endpoint).  It finds that step by
peeling, as in Batagelj and Zaversnik's O(m) k-core algorithm (2003),
on state indexed by vertex id: a copy of each neighbour set, a live flag
per vertex and a count of the vertices left.

- isolated and degree-1 vertices wait in one min-heap of (degree,
  vertex), and a step's neighbour that falls below degree 2 is pushed
  there;
- each maximal chain of degree-2 vertices (an open chain between branch
  vertices, a loop at one branch vertex, or a cycle component) sits in a
  second min-heap under the key of its best ear.  An open chain of
  length exactly p is one ear, whose key is read off it; `_chain_best`
  finds the others' in one pass over the chain;
- a deletion marks each neighbour that falls to degree 2; before an ear
  is chosen, the chains through the marked vertices are rebuilt and
  pushed.  `graph.chains_through` keeps a record of the chains it
  walked, so a rebuilt chain is joined from the chains that meet at a
  marked vertex, not walked again;
- entries are checked when popped: a vertex must still have the degree
  it was pushed with, and a chain entry, pushed with the chain's ends, is
  taken only if its vertex is still there and each end still has degree
  >= 3.

That check is exact because, between two ear choices, a chain changes in
only two ways: an ear consumes it whole (its interior, then what is left
of the chain, leaf by leaf), or an end falls to degree 2 and the chain
grows through it, and then the rebuild pushes the grown chain anew.

Cost: O(n + m) to start.  Then an isolated or leaf step costs
O(log n); an ear step costs O(log n) for its heap entry, its own
vertices, and the chains rebuilt at its ends: each a copy of the joined
vertex lists and one pass for its key.  No step allocates anything of
size n, and the run stops when the graph is empty, without popping the
entries left in the heaps.  A rebuilt chain is still copied whole, so a
chain that grows one merge at a time (the rim of a wheel whose spokes
are deleted in turn) keeps the worst case quadratic, in list copies and
minima rather than in steps of a walk.  The tests hold the engine to a
whole-graph scan, step by step, and at scale to the engine it replaced,
which copied the graph into a dict of sets and walked every rebuilt
chain.

One greedy run serves a whole pipeline on one graph.  `greedy_reduce`,
`is_p_path_degenerate`, `certificate_or_raise`, and through them both
colorings and `wcol.weak_order`, share the run's (certificate,
survivors), one per p, in `graph.derived`'s slot for the graph object
last passed, beside that graph's `core_skeleton`.  The match is by
identity (`is`), never by equality: an equal graph built anew is
decided afresh.  The results are frozen, so sharing them is safe.

An exact-ear certificate, every ear of length exactly p, is a function
of the run's, not a mode of the engine: `exact_ear_certificate` cuts
each longer ear v0..vL to v0..vp and follows it by leaf steps on vp,
..., v(L-1), which leave the same graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import NamedTuple

from .graph import Graph, chains_through, derived, induced_subgraph, from_edges, peel

ISOLATED = "I"
LEAF = "L"
EAR = "E"


class SearchBudgetExceeded(RuntimeError):
    """Backtracking oracle ran out of its state budget (not a verdict)."""


class NotPathDegenerate(ValueError):
    """An operation required a p-path degenerate input."""


class CertificateError(ValueError):
    """A reduction certificate failed to replay."""


class ReductionStep(NamedTuple):
    """One step, immutable: a tuple, so that building one costs no
    per-field assignment (a run builds one per step)."""

    kind: str                    # ISOLATED, LEAF or EAR
    vertices: tuple[int, ...]    # one vertex, or the full ear sequence

    @property
    def deleted(self) -> tuple[int, ...]:
        if self.kind == EAR:
            return self.vertices[1:-1]
        return self.vertices

    def to_line(self) -> str:
        return f"{self.kind} {' '.join(str(v) for v in self.vertices)}"


# The engine and the exact-ear rewrite build each step as
# _step(ReductionStep, (kind, vertices)), as NamedTuple's own `_make`
# does, without its Python-level __new__.
_step = tuple.__new__


@dataclass(frozen=True)
class ReductionSequence:
    p: int
    steps: tuple[ReductionStep, ...]
    exact_ears: bool = False

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class DegeneracyVerdict:
    degenerate: bool
    certificate: ReductionSequence | None = None
    witness: Graph | None = None
    witness_vertices: tuple[int, ...] = field(default=())


def _window_key(s: list[int], i: int, j: int) -> tuple[int, ...]:
    """Ear key of the path s[i..j]: (smaller endpoint, larger endpoint,
    interior read from the smaller endpoint)."""
    if s[i] < s[j]:
        return (s[i], s[j], *s[i + 1:j])
    return (s[j], s[i], *s[j - 1:i:-1])


def _holds_ear(s: list[int], p: int) -> bool:
    """Whether a `graph.chains_through` chain s holds an ear of length >= p:
    an open one of length >= p, a loop or cycle component of length > p."""
    return len(s) - 1 >= p + (s[0] == s[-1])


def _chain_best(s: list[int], closed: bool, p: int) -> tuple[int, ...] | None:
    """Key of the smallest applicable ear on one maximal degree-2 chain.

    closed: s is a cycle component in cyclic order, and the candidates are
    its runs of len(s) consecutive vertices (the cycle minus one edge).
    Otherwise s runs from a branch vertex to a branch vertex (the same one
    for a loop), and the candidates are its sub-paths of length >= p with
    an end at s[0] or s[-1], except the closed walk of a loop.
    """
    if not _holds_ear(s, p):
        return None
    m = len(s) - 1
    if closed:   # drop the edge from the smallest vertex to its smaller neighbour
        i = s.index(min(s))
        s = s[i:] + s[:i]
        return _window_key(s if s[m] < s[1] else [s[0], *s[:0:-1]], 0, m)
    loop = s[0] == s[m]
    # With one end fixed, the smallest pair has the smallest other end.
    j = s.index(min(s[p:m if loop else m + 1]), p)
    lo = 1 if loop else 0
    i = s.index(min(s[lo:m - p + 1]), lo)
    first = (s[0], s[j]) if s[0] < s[j] else (s[j], s[0])
    last = (s[i], s[m]) if s[i] < s[m] else (s[m], s[i])
    if first != last:
        return _window_key(s, 0, j) if first < last else _window_key(s, i, m)
    return min(_window_key(s, 0, j), _window_key(s, i, m))


def _peel(g: Graph, p: int, live: bytearray):
    """Yield the greedy steps on g in order, clearing live[v] as each
    vertex goes; resuming deletes the last yielded step.  Ends when the
    live vertices induce a p-irreducible graph.  live starts all ones."""
    if p < 2:
        raise ValueError("p must be >= 2")
    adj = list(map(set, g.adj))
    low = []        # (degree, vertex) for each vertex below degree 2, checked when popped
    dirty = []      # vertices at degree 2 whose chains are not yet in `chains`
    for v, nb in enumerate(adj):
        if len(nb) < 2:
            low.append((len(nb), v))
        elif len(nb) == 2:
            dirty.append(v)
    heapify(low)
    chains: list = []
    known = [None] * len(adj)     # chains_through's record of the chains it walked
    left = len(adj)
    while left:
        if low:
            degree, v = heappop(low)
        else:
            if dirty:
                for s, closed in chains_through(adj, dirty, known):
                    m = len(s) - 1
                    if m == p and not closed and s[0] != s[m]:    # one ear, the whole chain
                        key = (s[0], s[m], *s[1:m]) if s[0] < s[m] else (s[m], s[0], *s[m - 1:0:-1])
                    else:
                        key = _chain_best(s, closed, p)
                        if key is None:
                            continue
                    heappush(chains, (key, s[1], () if closed else (s[0], s[m])))
                dirty = []
            # current: its vertex s[1], inside the chain, is live and its ends still branch
            while chains:
                key, v, ends = heappop(chains)
                if live[v] and (not ends or len(adj[ends[0]]) > 2 and len(adj[ends[1]]) > 2):
                    break
            else:
                return
            ear = (key[0], *key[2:], key[1])
            yield _step(ReductionStep, (EAR, ear))
            for v in ear[1:-1]:
                live[v] = 0
            left -= len(ear) - 2
            for u, w in ((ear[0], ear[1]), (ear[-1], ear[-2])):
                nb = adj[u]
                nb.discard(w)
                if len(nb) < 2:
                    heappush(low, (len(nb), u))
                elif len(nb) == 2:
                    dirty.append(u)
            continue
        if len(adj[v]) != degree:
            continue
        yield _step(ReductionStep, (LEAF if degree else ISOLATED, (v,)))
        live[v] = 0
        left -= 1
        if degree:
            (u,) = adj[v]
            nb = adj[u]
            nb.discard(v)
            if len(nb) < 2:
                heappush(low, (len(nb), u))
            elif len(nb) == 2:
                dirty.append(u)


def _exact_steps(steps, p: int):
    """The steps, each ear v0..vL with L > p as the ear v0..vp and leaf
    steps on vp, ..., v(L-1): alike on open chains, loops and cycles."""
    for step in steps:
        vs = step[1]
        if len(vs) > p + 1:       # an ear: other steps have one vertex
            yield _step(ReductionStep, (EAR, vs[:p + 1]))
            for v in vs[p:-1]:
                yield _step(ReductionStep, (LEAF, (v,)))
        else:
            yield step


def exact_ear_certificate(cert: ReductionSequence) -> ReductionSequence:
    """cert with each ear v0..vL, L > p, cut to v0..vp and followed by
    leaf steps on vp, ..., v(L-1): it leaves the same graph, and it
    replays with every ear of length exactly p."""
    return ReductionSequence(cert.p, tuple(_exact_steps(cert.steps, cert.p)), True)


def find_p_reduction(g: Graph, p: int) -> ReductionStep | None:
    """The first step of the greedy engine, or None iff g is
    p-irreducible: the module's deterministic rule."""
    return next(_peel(g, p, bytearray(b"\x01") * g.n), None)


def _reduce(g: Graph, p: int) -> tuple[ReductionSequence, tuple[int, ...]]:
    """The greedy run: its certificate and the sorted vertices it leaves,
    kept in `graph.derived`'s slot under p: one engine run per graph
    object and p."""
    def run(g: Graph):
        live = bytearray(b"\x01") * g.n
        steps = tuple(_peel(g, p, live))
        return ReductionSequence(p=p, steps=steps), tuple(compress(range(g.n), live))

    return derived(g, p, run)


def greedy_reduce(g: Graph, p: int):
    """Apply steps until the graph is p-irreducible.

    Returns (prefix, residual): the recorded ReductionSequence and the
    residual graph, relabeled over its surviving vertices in increasing
    original-id order.  The residual is empty exactly when g is p-path
    degenerate.
    """
    cert, survivors = _reduce(g, p)
    return cert, induced_subgraph(g, survivors)


def certificate_or_raise(g: Graph, p: int) -> ReductionSequence:
    """The greedy certificate that empties g; raises NotPathDegenerate
    when g is not p-path degenerate."""
    verdict = is_p_path_degenerate(g, p)
    if not verdict.degenerate:
        raise NotPathDegenerate(f"graph is not {p}-path degenerate "
                                f"({len(verdict.witness_vertices)} vertices stay irreducible)")
    return verdict.certificate


def is_p_path_degenerate(g: Graph, p: int) -> DegeneracyVerdict:
    """Decide p-path degeneracy with a certificate either way: a replayable
    reduction sequence, or a p-irreducible witness subgraph."""
    cert, survivors = _reduce(g, p)
    if not survivors:
        return DegeneracyVerdict(degenerate=True, certificate=cert)
    return DegeneracyVerdict(degenerate=False, witness=induced_subgraph(g, survivors),
                             witness_vertices=survivors)


def backtrack_degenerate(g: Graph, p: int, budget: int = 500_000) -> bool:
    """Ground truth by exploring all reduction orders: True iff SOME
    sequence of p-reductions empties g.  Raises SearchBudgetExceeded when
    more than `budget` states have been seen.

    Deleting a vertex of degree <= 1 never hurts, so a state is a 2-core.
    In a 2-core every strict ear's interior lies inside one maximal
    degree-2 chain, and deleting it and peeling again removes the rest of
    the chain: every ear of a chain leads to the same next 2-core.  So a
    move deletes a whole chain that holds an ear of length >= p (see
    `_holds_ear`), and the depth-first search keeps an explicit stack of
    (state, chain interior) moves and a set of the states seen:
    O(states x n) memory.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    seen: set[frozenset[int]] = set()
    stack = [(frozenset(range(g.n)), ())]
    while stack:
        parent, interior = stack.pop()
        alive = parent.difference(interior)
        adj = {v: {w for w in g.adj[v] if w in alive} for v in alive}
        deg = {v: len(nb) for v, nb in adj.items()}
        live = dict.fromkeys(adj, True)
        peel(adj, deg, live, [v for v in adj if deg[v] < 2])
        alive = frozenset(v for v in adj if live[v])
        if not alive:
            return True
        if alive in seen:
            continue
        seen.add(alive)
        if len(seen) > budget:
            raise SearchBudgetExceeded(f"more than {budget} states explored")
        adj = {v: adj[v] & alive for v in alive}
        for s, closed in chains_through(adj, alive):
            if _holds_ear(s, p):
                stack.append((alive, s if closed else s[1:-1]))
    return False


def _ear_error(vs, adj, live, degree) -> str | None:
    """The first of an ear's vertices that is not present, pair that is
    not adjacent, or interior vertex without degree 2, as replay reports it."""
    n = len(live)
    for v in vs:
        if not (0 <= v < n and live[v]):
            return f"vertex {v} not present"
    for a, b in zip(vs, vs[1:]):
        if b not in adj[a]:
            return f"{a} and {b} not adjacent"
    for v in vs[1:-1]:
        if degree[v] != 2:
            return f"interior vertex {v} has degree {degree[v]}"
    return None


def replay_certificate(g: Graph, cert: ReductionSequence) -> None:
    """Independent checker: validate every step against the evolving graph
    and require the final graph to be empty.  Raises CertificateError, or
    ValueError when cert.p < 2.

    The evolving graph is g.adj read through a live flag and a degree
    count per vertex: a deletion clears the flag and lowers the count of
    each live neighbour, so a step costs its vertices' degrees in g and
    nothing is copied.  Ids are range-checked before the flag is read."""
    p, exact = cert.p, cert.exact_ears
    if p < 2:
        raise ValueError("p must be >= 2")
    n, adj = g.n, g.adj
    degree = [len(nb) for nb in adj]
    live = bytearray(b"\x01") * n
    left = n
    for idx, step in enumerate(cert.steps, 1):
        kind, vs = step
        error = None
        if kind == ISOLATED or kind == LEAF:
            if len(vs) != 1:
                error = f"{kind} takes exactly one vertex"
            elif not (0 <= vs[0] < n and live[vs[0]]):
                error = f"vertex {vs[0]} not present"
            elif kind == ISOLATED and degree[vs[0]]:
                error = f"vertex {vs[0]} is not isolated"
            elif kind == LEAF and degree[vs[0]] != 1:
                error = f"vertex {vs[0]} has degree {degree[vs[0]]}, not 1"
            deleted = vs
        elif kind == EAR:
            length = len(vs) - 1
            if length < p:
                error = f"ear length {length} < p={p}"
            elif exact and length != p:
                error = f"ear length {length} != p={p}"
            elif vs[0] == vs[-1]:
                error = "ear endpoints coincide"
            elif len(set(vs)) != len(vs):
                error = "repeated vertex on ear"
            else:
                error = _ear_error(vs, adj, live, degree)
            deleted = vs[1:-1]
        else:
            error = f"unknown step kind {kind!r}"
        if error:
            raise CertificateError(f"step {idx} ({step.to_line()}): {error}")
        for v in deleted:
            live[v] = 0
            for u in adj[v]:
                degree[u] -= 1
        left -= len(deleted)
    if left:
        raise CertificateError(f"{left} vertices remain after replaying all steps")


def minimal_irreducible_witness_edges(g: Graph, p: int) -> frozenset[tuple[int, int]]:
    """Edge set (in g's labels) of an edge-minimal non-degenerate subgraph:
    deleting any one of its edges leaves a p-path degenerate graph."""
    if p < 2:
        raise ValueError("p must be >= 2")

    def degenerate(edge_set) -> bool:
        if not edge_set:
            return True
        h = from_edges(edge_set)
        return is_p_path_degenerate(h, p).degenerate

    if degenerate(g.edges):
        raise NotPathDegenerate("input graph is p-path degenerate; no witness exists")
    # One sweep suffices: subgraphs of degenerate graphs are degenerate,
    # so an edge kept once stays needed after later deletions.
    current = set(g.edges)
    for e in sorted(g.edges):
        current.discard(e)
        if degenerate(current):
            current.add(e)
    return frozenset(current)


def minimal_irreducible_witness(g: Graph, p: int) -> Graph:
    """A p-irreducible subgraph of g such that removing any edge makes the
    remainder p-path degenerate.  Connected, minimum degree >= 2,
    relabeled over its incident vertices."""
    return from_edges(minimal_irreducible_witness_edges(g, p))
