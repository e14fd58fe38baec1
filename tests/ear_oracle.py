"""Reference oracle for `pathdeg.reduction.backtrack_degenerate`: the
search over every sub-ear.

Each state is the vertex set left after peeling vertices of degree <= 1.
Its moves are the interiors of every strict ear of length >= p, of every
sub-ear length, found by walking out of every directed edge; the search
recurses once per deletion and memoizes its verdict per state.  So it
pays cubic memory on a long cycle and overflows the interpreter stack on
a graph that needs many successive ear deletions.  The tests hold the
chain search in `pathdeg.reduction` to the same verdicts.
"""

from __future__ import annotations

from pathdeg.graph import Graph, peel, walk_chain
from pathdeg.reduction import SearchBudgetExceeded


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
