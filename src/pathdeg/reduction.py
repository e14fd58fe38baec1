"""The ear-reduction engine.

A step removes an isolated vertex, a degree-1 vertex, or the interior of a
strict ear of length at least p (exactly p in exact-ear mode).  A graph is
p-path degenerate when some sequence of steps empties it; since any
subgraph of a degenerate graph is degenerate, greedy maximal reduction
decides the property, and the order-insensitive backtracking oracle here
exists to keep that assumption honest.

The greedy engine takes the smallest applicable step every time: an
isolated vertex before a leaf, each the smallest such vertex, and an ear
only when neither exists, the one with the smallest key (endpoint pair,
then interior read from the smaller endpoint).  It finds that step by
peeling, as in Batagelj and Zaversnik's O(m) k-core algorithm (2003):

- isolated and degree-1 vertices wait in two min-heaps;
- each maximal chain of degree-2 vertices (an open chain between branch
  vertices, a loop at one branch vertex, or a cycle component) sits in a
  third min-heap under the key of its best ear, found in one pass over
  the chain;
- a deletion pushes each neighbour that falls to degree 0 or 1 onto its
  heap and marks each that falls to degree 2; before an ear is chosen,
  the chains through the marked vertices are rebuilt and pushed;
- entries are checked when popped: a vertex must still have the degree
  of its heap, and a chain entry is taken only if re-walking the chain
  gives the key it was pushed with (otherwise it goes back under its
  current key).

Cost: O(n + m) to start, then per step O(log n) plus the length of the
chains it rebuilds or re-walks.  An ear consumes its whole chain (what is
left of it unravels leaf by leaf), but a chain is walked again whenever
it merges with another at a vertex that fell to degree 2, so a long
chain that grows one merge at a time makes the total quadratic in the
worst case.  The choice rule and the certificate format are unchanged
from the engine that rescanned the whole graph for every step; the tests
keep that scan as a reference and compare certificates step by step.

Certificates are replayable: each step records the vertices it deletes,
and an independent checker validates applicability step by step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .graph import Graph, induced_subgraph, from_edges, peel, walk_chain

ISOLATED = "I"
LEAF = "L"
EAR = "E"


class SearchBudgetExceeded(RuntimeError):
    """Backtracking oracle ran out of its state budget (not a verdict)."""


class NotPathDegenerate(ValueError):
    """An operation required a p-path degenerate input."""


class CertificateError(ValueError):
    """A reduction certificate failed to replay."""


@dataclass(frozen=True)
class ReductionStep:
    kind: str                    # ISOLATED, LEAF or EAR
    vertices: tuple[int, ...]    # one vertex, or the full ear sequence

    @property
    def deleted(self) -> tuple[int, ...]:
        if self.kind == EAR:
            return self.vertices[1:-1]
        return self.vertices

    def to_line(self) -> str:
        return f"{self.kind} {' '.join(str(v) for v in self.vertices)}"


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


def _work_adj(g: Graph) -> dict[int, set[int]]:
    return {v: set(g.adj[v]) for v in range(g.n)}


def _delete_vertices(adj: dict[int, set[int]], vs) -> None:
    for v in vs:
        for u in adj[v]:
            adj[u].discard(v)
        del adj[v]


def _window_key(s: list[int], i: int, j: int) -> tuple[int, ...]:
    """Ear key of the path s[i..j]: (smaller endpoint, larger endpoint,
    interior read from the smaller endpoint)."""
    if s[i] < s[j]:
        return (s[i], s[j], *s[i + 1:j])
    return (s[j], s[i], *s[j - 1:i:-1])


def _best_fixed_width(s: list[int], w: int, count: int) -> tuple[int, ...]:
    """Smallest key among the windows s[i..i+w], i < count.  The endpoint
    pair decides unless windows share it; only those are spelled out."""
    pairs = [(a, b) if a < b else (b, a) for a, b in zip(s[:count], s[w:])]
    best = min(pairs)
    return min(_window_key(s, i, i + w) for i, pair in enumerate(pairs) if pair == best)


def _chain_best(s: list[int], closed: bool, p: int, exact: bool) -> tuple[int, ...] | None:
    """Key of the smallest applicable ear on one maximal degree-2 chain.

    closed: s is a cycle component in cyclic order, and the candidates are
    its runs of w+1 consecutive vertices, w = p (exact) or len(s)-1 (the
    cycle minus one edge).  Otherwise s runs from a branch vertex to a
    branch vertex (the same one for a loop), and the candidates are its
    sub-paths of length >= p with an end at s[0] or s[-1] (exact: all its
    sub-paths of length p), except the closed walk of a loop.
    """
    m = len(s) - 1
    if closed:
        if p > m:
            return None
        w = p if exact else m
        return _best_fixed_width(s + s[:w], w, len(s))
    loop = s[0] == s[m]
    if m < p or (loop and m == p):
        return None
    if exact:
        return _best_fixed_width(s, p, m - p + 1)
    # With one end fixed, the smallest pair has the smallest other end.
    j = s.index(min(s[p:m if loop else m + 1]), p)
    lo = 1 if loop else 0
    i = s.index(min(s[lo:m - p + 1]), lo)
    return min(_window_key(s, 0, j), _window_key(s, i, m))


def _chain(adj: dict[int, set[int]], v: int) -> tuple[list[int], bool]:
    """The maximal degree-2 chain through v (of degree 2), as (s, closed)
    for `_chain_best`."""
    a, b = adj[v]
    right = walk_chain(adj, v, a)
    if right[-1] == v:
        return [v, *right[:-1]], True
    left = walk_chain(adj, v, b)
    left.reverse()
    return [*left, v, *right], False


def _next_ear(adj: dict[int, set[int]], chains: list, dirty: set[int],
              p: int, exact: bool) -> tuple[int, ...] | None:
    """The smallest applicable ear, once no vertex has degree below 2.
    Rebuilds the chains through `dirty`, then pops `chains` until an entry
    re-walks to the key it was pushed with."""
    while dirty:
        v = dirty.pop()
        if len(adj.get(v, ())) != 2:
            continue
        s, closed = _chain(adj, v)
        dirty.difference_update(s)
        key = _chain_best(s, closed, p, exact)
        if key is not None:
            heappush(chains, (key, v))
    while chains:
        key, v = heappop(chains)
        if len(adj.get(v, ())) != 2:
            continue
        current = _chain_best(*_chain(adj, v), p, exact)
        if current == key:
            return (key[0], *key[2:], key[1])
        if current is not None:
            heappush(chains, (current, v))
    return None


def _peel(adj: dict[int, set[int]], p: int, exact: bool):
    """Yield the greedy steps in order; resuming deletes the last yielded
    step from adj.  Ends when adj is p-irreducible."""
    isolated = [v for v, nb in adj.items() if not nb]
    leaves = [v for v, nb in adj.items() if len(nb) == 1]
    heapify(isolated)
    heapify(leaves)
    dirty = {v for v, nb in adj.items() if len(nb) == 2}
    chains: list = []
    while True:
        while isolated and isolated[0] not in adj:
            heappop(isolated)
        while leaves and len(adj.get(leaves[0], ())) != 1:
            heappop(leaves)
        if isolated:
            step = ReductionStep(ISOLATED, (heappop(isolated),))
        elif leaves:
            step = ReductionStep(LEAF, (heappop(leaves),))
        else:
            ear = _next_ear(adj, chains, dirty, p, exact)
            if ear is None:
                return
            step = ReductionStep(EAR, ear)
        yield step
        touched = [u for v in step.deleted for u in adj[v]]
        _delete_vertices(adj, step.deleted)
        for u in touched:
            if u not in adj:
                continue
            degree = len(adj[u])
            if degree == 0:
                heappush(isolated, u)
            elif degree == 1:
                heappush(leaves, u)
            elif degree == 2:
                dirty.add(u)


def find_p_reduction(g: Graph, p: int, exact_ears: bool = False) -> ReductionStep | None:
    """The first step of the greedy engine, or None iff g is
    p-irreducible.  The choice is deterministic: isolated < leaf < ear,
    ties to the smallest vertex, ears to the smallest (endpoint pair,
    interior)."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return next(_peel(_work_adj(g), p, exact_ears), None)


def greedy_reduce(g: Graph, p: int, exact_ears: bool = False):
    """Apply steps until the graph is p-irreducible.

    Returns (prefix, residual): the recorded ReductionSequence and the
    residual graph, relabeled over its surviving vertices in increasing
    original-id order.  The residual is empty exactly when g is p-path
    degenerate.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    adj = _work_adj(g)
    steps = list(_peel(adj, p, exact_ears))
    residual = induced_subgraph(g, adj.keys())
    return ReductionSequence(p=p, steps=tuple(steps), exact_ears=exact_ears), residual


def certificate_or_raise(g: Graph, p: int, exact_ears: bool = False) -> ReductionSequence:
    """The greedy certificate that empties g; raises NotPathDegenerate
    when g is not p-path degenerate."""
    cert, residual = greedy_reduce(g, p, exact_ears)
    if residual.n:
        raise NotPathDegenerate(f"graph is not {p}-path degenerate "
                                f"({residual.n} vertices stay irreducible)")
    return cert


def is_p_path_degenerate(g: Graph, p: int, exact_ears: bool = False) -> DegeneracyVerdict:
    """Decide p-path degeneracy with a certificate either way: a replayable
    reduction sequence, or a p-irreducible witness subgraph."""
    if p < 2:
        raise ValueError("p must be >= 2")
    adj = _work_adj(g)
    steps = list(_peel(adj, p, exact_ears))
    if not adj:
        return DegeneracyVerdict(
            degenerate=True,
            certificate=ReductionSequence(p=p, steps=tuple(steps), exact_ears=exact_ears),
        )
    survivors = tuple(sorted(adj))
    return DegeneracyVerdict(
        degenerate=False,
        witness=induced_subgraph(g, survivors),
        witness_vertices=survivors,
    )


def _ear_interiors(adj: dict[int, set[int]], p: int) -> set[frozenset[int]]:
    """Interior sets of every strict ear of length >= p (all sub-ear
    lengths), for the exhaustive oracle."""
    out: set[frozenset[int]] = set()
    for a0 in adj:
        for a1 in adj[a0]:
            path = [a0, *walk_chain(adj, a0, a1)]
            if path[-1] == a0:              # a cycle back to a0: not an ear
                path.pop()
            for end in range(p, len(path)):
                out.add(frozenset(path[1:end]))
    return out


def backtrack_degenerate(g: Graph, p: int, budget: int = 500_000) -> bool:
    """Ground truth by exploring all reduction orders: True iff SOME
    sequence of p-reductions empties g.  Each state is peeled of its
    vertices of degree <= 1 and then memoized on the vertex set left;
    raises SearchBudgetExceeded when the state budget runs out."""
    if p < 2:
        raise ValueError("p must be >= 2")
    memo: dict[frozenset[int], bool] = {}
    explored = 0

    def solve(alive: frozenset[int]) -> bool:
        nonlocal explored
        # deleting vertices of degree <= 1 never hurts, so peel them first
        adj = {v: {w for w in g.adj[v] if w in alive} for v in alive}
        deg = {v: len(nb) for v, nb in adj.items()}
        live = dict.fromkeys(adj, True)
        peel(adj, deg, live, [v for v in adj if deg[v] < 2])
        alive = frozenset(v for v in adj if live[v])
        if not alive:
            return True
        cached = memo.get(alive)
        if cached is not None:
            return cached
        explored += 1
        if explored > budget:
            raise SearchBudgetExceeded(f"more than {budget} states explored")
        adj = {v: adj[v] & alive for v in alive}
        deletions = _ear_interiors(adj, p)
        result = any(solve(alive - d) for d in sorted(deletions, key=lambda s: (-len(s), sorted(s))))
        memo[alive] = result
        return result

    return solve(frozenset(range(g.n)))


def replay_certificate(g: Graph, cert: ReductionSequence) -> None:
    """Independent checker: validate every step against the evolving graph
    and require the final graph to be empty.  Raises CertificateError."""
    adj = _work_adj(g)
    for idx, step in enumerate(cert.steps):
        where = f"step {idx + 1} ({step.to_line()})"
        if step.kind == ISOLATED:
            (v,) = step.vertices
            if v not in adj:
                raise CertificateError(f"{where}: vertex {v} not present")
            if adj[v]:
                raise CertificateError(f"{where}: vertex {v} is not isolated")
            _delete_vertices(adj, (v,))
        elif step.kind == LEAF:
            (v,) = step.vertices
            if v not in adj:
                raise CertificateError(f"{where}: vertex {v} not present")
            if len(adj[v]) != 1:
                raise CertificateError(f"{where}: vertex {v} has degree {len(adj[v])}, not 1")
            _delete_vertices(adj, (v,))
        elif step.kind == EAR:
            seq = step.vertices
            length = len(seq) - 1
            if length < cert.p:
                raise CertificateError(f"{where}: ear length {length} < p={cert.p}")
            if cert.exact_ears and length != cert.p:
                raise CertificateError(f"{where}: ear length {length} != p={cert.p}")
            if seq[0] == seq[-1]:
                raise CertificateError(f"{where}: ear endpoints coincide")
            if len(set(seq)) != len(seq):
                raise CertificateError(f"{where}: repeated vertex on ear")
            for v in seq:
                if v not in adj:
                    raise CertificateError(f"{where}: vertex {v} not present")
            for a, b in zip(seq, seq[1:]):
                if b not in adj[a]:
                    raise CertificateError(f"{where}: {a} and {b} not adjacent")
            for v in seq[1:-1]:
                if len(adj[v]) != 2:
                    raise CertificateError(f"{where}: interior vertex {v} has degree {len(adj[v])}")
            _delete_vertices(adj, seq[1:-1])
        else:
            raise CertificateError(f"{where}: unknown step kind {step.kind!r}")
    if adj:
        raise CertificateError(f"{len(adj)} vertices remain after replaying all steps")


def certificate_replays(g: Graph, cert: ReductionSequence) -> bool:
    try:
        replay_certificate(g, cert)
    except CertificateError:
        return False
    return True


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
