"""The certificate replay as it stood before `reduction.replay_certificate`
read g.adj through degree counts and a live flag: a dict-of-sets copy of
the graph, one `_step_error` call per step, and a deletion that discards
each vertex from its neighbours' sets.  The tests hold production to the
same `CertificateError` text, or none, and use `_step_error` and
`_delete_vertices` to walk a certificate step by step."""

from pathdeg.reduction import EAR, ISOLATED, LEAF, CertificateError, ReductionSequence, ReductionStep
from pathdeg.graph import Graph

from peel_oracle import _work_adj


def _delete_vertices(adj: dict[int, set[int]], vs) -> None:
    for v in vs:
        for u in adj[v]:
            adj[u].discard(v)
        del adj[v]


def _step_error(adj: dict[int, set[int]], step: ReductionStep, p: int, exact: bool) -> str | None:
    """Why `step` does not apply to adj, or None when it does."""
    vs = step.vertices
    if step.kind in (ISOLATED, LEAF):
        if len(vs) != 1:
            return f"{step.kind} takes exactly one vertex"
        (v,) = vs
        if v not in adj:
            return f"vertex {v} not present"
        if step.kind == ISOLATED and adj[v]:
            return f"vertex {v} is not isolated"
        if step.kind == LEAF and len(adj[v]) != 1:
            return f"vertex {v} has degree {len(adj[v])}, not 1"
        return None
    if step.kind != EAR:
        return f"unknown step kind {step.kind!r}"
    length = len(vs) - 1
    if length < p:
        return f"ear length {length} < p={p}"
    if exact and length != p:
        return f"ear length {length} != p={p}"
    if vs[0] == vs[-1]:
        return "ear endpoints coincide"
    if len(set(vs)) != len(vs):
        return "repeated vertex on ear"
    for v in vs:
        if v not in adj:
            return f"vertex {v} not present"
    for a, b in zip(vs, vs[1:]):
        if b not in adj[a]:
            return f"{a} and {b} not adjacent"
    for v in vs[1:-1]:
        if len(adj[v]) != 2:
            return f"interior vertex {v} has degree {len(adj[v])}"
    return None


def replay_certificate_by_copy(g: Graph, cert: ReductionSequence) -> None:
    """Independent checker: validate every step against the evolving graph
    and require the final graph to be empty.  Raises CertificateError, or
    ValueError when cert.p < 2."""
    if cert.p < 2:
        raise ValueError("p must be >= 2")
    adj = _work_adj(g)
    for idx, step in enumerate(cert.steps):
        error = _step_error(adj, step, cert.p, cert.exact_ears)
        if error:
            raise CertificateError(f"step {idx + 1} ({step.to_line()}): {error}")
        _delete_vertices(adj, step.deleted)
    if adj:
        raise CertificateError(f"{len(adj)} vertices remain after replaying all steps")
