"""pathdeg: ear-reduction path degeneracy for simple graphs, with the
constructions it pays for — cycle-rainbow edge colorings, weak-coloring
vertex orders — and closed-form girth threshold evaluators.

Everything is pure and deterministic; brute-force oracles accompany each
production algorithm at desk scale.
"""

from .graph import (
    INFINITE,
    CycleCapExceeded,
    Graph,
    StrictEar,
    build_graph,
    enumerate_cycles,
    girth,
    strict_ears,
    subdivide,
)
from .generators import cycle, path, complete, theta, fixture
from .reduction import (
    CertificateError,
    DegeneracyVerdict,
    NotPathDegenerate,
    ReductionSequence,
    ReductionStep,
    SearchBudgetExceeded,
    backtrack_degenerate,
    find_p_reduction,
    greedy_reduce,
    is_p_path_degenerate,
    minimal_irreducible_witness,
    replay_certificate,
)
from .colorings import EdgeColoring, acyclic_edge_coloring, arboricity_coloring, verify_cycle_rainbow, verify_proper
from .wcol import LinearOrder, WcolBoundParams, weak_order, wcol_exact, wcol_under_order
from .bounds import (
    BoundResult,
    ExpansionParams,
    girth_bound_clique,
    girth_bound_minor_closed,
    girth_bound_polynomial,
    girth_bound_subexponential,
    lambert_w_minus1,
    lower_bound_poly,
    threshold_beta,
    wcol_girth_rule,
)
from .density import StateCapExceeded, mad, max_subgraph_density, nabla_r_bruteforce

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "CycleCapExceeded",
    "Graph",
    "StrictEar",
    "build_graph",
    "enumerate_cycles",
    "girth",
    "strict_ears",
    "subdivide",
    "cycle",
    "path",
    "complete",
    "theta",
    "fixture",
    "CertificateError",
    "DegeneracyVerdict",
    "NotPathDegenerate",
    "ReductionSequence",
    "ReductionStep",
    "SearchBudgetExceeded",
    "backtrack_degenerate",
    "find_p_reduction",
    "greedy_reduce",
    "is_p_path_degenerate",
    "minimal_irreducible_witness",
    "replay_certificate",
    "EdgeColoring",
    "acyclic_edge_coloring",
    "arboricity_coloring",
    "verify_cycle_rainbow",
    "verify_proper",
    "LinearOrder",
    "WcolBoundParams",
    "weak_order",
    "wcol_exact",
    "wcol_under_order",
    "BoundResult",
    "ExpansionParams",
    "girth_bound_clique",
    "girth_bound_minor_closed",
    "girth_bound_polynomial",
    "girth_bound_subexponential",
    "lambert_w_minus1",
    "lower_bound_poly",
    "threshold_beta",
    "wcol_girth_rule",
    "StateCapExceeded",
    "mad",
    "max_subgraph_density",
    "nabla_r_bruteforce",
]
