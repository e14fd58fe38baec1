"""Reference oracle for the greedy reduction engine: the whole-graph scan.

Every step rescans all vertices for an isolated or degree-1 vertex and
walks out of every directed edge for the best ear, so a step costs at
least O(n + m) and a whole reduction quadratic time.  It applies the
same deterministic rule as the peeling engine in `pathdeg.reduction`
(isolated < leaf, ties to the smallest vertex; ears by smallest
(endpoint pair, interior)) by brute force, and the tests hold the two to
identical certificates step by step.  Exact-ear certificates are a
rewrite of these, checked by replay.
"""

from __future__ import annotations

from pathdeg.reduction import EAR, ISOLATED, LEAF, ReductionStep


def _ear_key(path: list[int]) -> tuple[int, ...]:
    if path[0] > path[-1]:
        path = list(reversed(path))
    return (path[0], path[-1], *path[1:-1])


def _best_ear(adj: dict[int, set[int]], p: int) -> tuple[int, ...] | None:
    """Deterministically smallest applicable ear: walk out of every
    directed edge through degree-2 vertices and take the maximal prefix
    (if long enough).  Candidates are compared by (endpoint pair,
    interior)."""
    best_key = None
    best_path = None
    for a0 in adj:
        for a1 in adj[a0]:
            path = [a0, a1]
            while True:
                last = path[-1]
                if len(adj[last]) != 2:
                    break
                nxt = next(iter(adj[last] - {path[-2]}))
                if nxt == a0:
                    break
                path.append(nxt)
            if len(path) - 1 < p:
                continue
            key = _ear_key(path)
            if best_key is None or key < best_key:
                best_key = key
                best_path = (key[0], *key[2:], key[1])
    return best_path


def _find_step(adj: dict[int, set[int]], p: int) -> ReductionStep | None:
    isolated = [v for v, nb in adj.items() if not nb]
    if isolated:
        return ReductionStep(ISOLATED, (min(isolated),))
    leaves = [v for v, nb in adj.items() if len(nb) == 1]
    if leaves:
        return ReductionStep(LEAF, (min(leaves),))
    ear = _best_ear(adj, p)
    if ear is not None:
        return ReductionStep(EAR, ear)
    return None
