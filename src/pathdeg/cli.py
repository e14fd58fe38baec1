"""Command-line surface.

Commands: analyze, check, color-arb, color-acyclic, wcol-order, bounds,
verify, density.  Every constructive output (certificate, coloring,
order) is re-verified in-process before it is emitted and the verdict is
part of the report; the exit status is 0 exactly when all requested
verifications pass.

Reports are deterministic key/value documents with a stable field order;
--json switches to strict JSON.  Graphs come from edge-list files,
`fixture:NAME`, or `g6:STRING`, optionally subdivided with --subdivide.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import bounds as bounds_mod
from . import formats
from .colorings import acyclic_edge_coloring, arboricity_coloring, verify_cycle_rainbow, verify_proper
from .density import mad, nabla_r_bruteforce
from .generators import fixture
from .graph import Graph, girth, subdivide
from .reduction import (
    CertificateError,
    backtrack_degenerate,
    find_p_reduction,
    is_p_path_degenerate,
    replay_certificate,
)
from .wcol import LinearOrder, WcolBoundParams, weak_order, wreach_all, wreach_bound_ok


@dataclass
class Report:
    command: str
    input: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)
    verification: dict = field(default_factory=dict)
    ok: bool = True

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "input": self.input,
            "result": self.result,
            "verification": self.verification,
            "ok": self.ok,
        }

    def render(self, as_json: bool) -> str:
        doc = self.to_dict()
        if as_json:
            return json.dumps(doc, indent=2)
        lines = []

        def emit(prefix, value):
            if isinstance(value, dict):
                for k, v in value.items():
                    emit(f"{prefix}.{k}" if prefix else k, v)
            elif isinstance(value, list) and value and isinstance(value[0], str) and "\n" not in str(value):
                lines.append(f"{prefix}:")
                lines.extend(f"  {item}" for item in value)
            else:
                lines.append(f"{prefix}: {value}")

        emit("", doc)
        return "\n".join(lines)


def _load_graph(spec: str, subdivide_k: int = 0) -> Graph:
    if spec.startswith("fixture:"):
        g = fixture(spec.split(":", 1)[1])
    elif spec.startswith("g6:"):
        g = formats.parse_graph6(spec.split(":", 1)[1])
    else:
        g = formats.parse_edge_list(Path(spec).read_text())
    if subdivide_k:
        n = g.n + subdivide_k * g.m
        if n > formats.MAX_VERTICES:
            raise formats.FormatError(f"subdivided vertex count {n} exceeds the limit of {formats.MAX_VERTICES}")
        g = subdivide(g, subdivide_k)
    return g


def _girth_field(g: Graph):
    value = girth(g)
    return "infinite" if value == float("inf") else int(value)


def _summary(g: Graph) -> dict:
    d = mad(g)
    return {"order": g.n, "size": g.m, "girth": _girth_field(g),
            "mad": f"{d.numerator}/{d.denominator}", "mad_real": float(d)}


def _replay_check(g: Graph, cert, report: Report) -> None:
    """Replay a certificate on g and record the outcome."""
    try:
        replay_certificate(g, cert)
        report.verification = {"certificate_replays": True}
    except CertificateError as exc:
        report.verification = {"certificate_replays": False, "error": str(exc)}
        report.ok = False


def _cmd_analyze(args, g: Graph, report: Report) -> None:
    report.result = {"max_degree": g.max_degree()}


def _cmd_check(args, g: Graph, report: Report) -> None:
    if args.oracle:
        verdict = backtrack_degenerate(g, args.p)
        report.result = {"p": args.p, "degenerate": verdict, "engine": "backtracking"}
        return
    verdict = is_p_path_degenerate(g, args.p, exact_ears=args.exact_ears)
    report.result = {"p": args.p, "degenerate": verdict.degenerate, "engine": "greedy"}
    if verdict.degenerate:
        cert = verdict.certificate
        report.result["certificate"] = formats.serialize_certificate(cert).splitlines()
        _replay_check(g, cert, report)
    else:
        report.result["witness_order"] = verdict.witness.n
        report.result["witness_size"] = verdict.witness.m
        report.result["witness_vertices"] = list(verdict.witness_vertices)
        report.verification["witness_irreducible"] = find_p_reduction(verdict.witness, args.p) is None
        report.ok = report.verification["witness_irreducible"]


def _coloring_check(g: Graph, coloring, t: int, report: Report, proper: bool = False,
                    palette: int | None = None) -> None:
    """Verify a coloring of g and record the outcome: properness when
    asked for, the cycle-rainbow property at threshold t, and the number
    of colors against `palette` when one is given."""
    checks = {"proper": verify_proper(g, coloring)} if proper else {}
    checks["cycle_rainbow_threshold"] = t
    checks["cycle_rainbow_ok"] = verify_cycle_rainbow(g, coloring, t=t)
    if palette is not None:
        checks["within_palette"] = coloring.num_colors <= palette
    report.verification = checks
    report.ok = all(v for k, v in checks.items() if k != "cycle_rainbow_threshold")


def _cmd_color_arb(args, g: Graph, report: Report) -> None:
    coloring = arboricity_coloring(g, args.r)
    report.result = {
        "r": args.r,
        "colors_used": coloring.num_colors,
        "coloring": formats.serialize_coloring(coloring).splitlines(),
    }
    _coloring_check(g, coloring, args.r + 1, report, palette=args.r + 1)


def _cmd_color_acyclic(args, g: Graph, report: Report) -> None:
    coloring = acyclic_edge_coloring(g, args.r)
    report.result = {
        "r": args.r,
        "colors_used": coloring.num_colors,
        "coloring": formats.serialize_coloring(coloring).splitlines(),
    }
    _coloring_check(g, coloring, args.r, report, proper=True, palette=max(g.max_degree(), args.r))


def _wreach_check(g: Graph, order: LinearOrder, params: WcolBoundParams) -> tuple[dict, int]:
    """Check max |WReach_x| against its bound for x = 0..r.  Returns the
    verification section and max |WReach_r|, which is the weak
    r-coloring number under the order."""
    ok = True
    per_x = {}
    for x in range(params.r + 1):
        worst = max((len(s) for s in wreach_all(g, order, x)), default=0)
        good = wreach_bound_ok(worst, x, params)
        per_x[str(x)] = {"max_wreach": worst, "ok": good}
        ok = ok and good
    return {"bound_per_radius": per_x, "all_within_bound": ok}, worst


def _cmd_wcol_order(args, g: Graph, report: Report) -> None:
    params = WcolBoundParams(r=args.r, q=args.q)
    order = weak_order(g, params)
    report.verification, wcol = _wreach_check(g, order, params)
    report.result = {
        "r": args.r,
        "q": args.q,
        "order": formats.serialize_order(order).strip(),
        "wcol_under_order": wcol,
    }
    report.ok = report.verification["all_within_bound"]


def _cmd_bounds(args, _g: None, report: Report) -> None:
    theorem = args.theorem
    if theorem == "polynomial":
        res = bounds_mod.girth_bound_polynomial(bounds_mod.ExpansionParams(args.a, args.b), args.p)
        inputs = {"a": args.a, "b": args.b, "p": args.p}
    elif theorem == "minor-closed":
        res = bounds_mod.girth_bound_minor_closed(args.d, args.p)
        inputs = {"d": args.d, "p": args.p}
    elif theorem == "subexponential":
        if args.b > 0:
            expansion = lambda r: args.a * (r + 0.5) ** args.b  # noqa: E731
        else:
            expansion = lambda _r: args.a  # noqa: E731 - constant expansion
        res = bounds_mod.girth_bound_subexponential(expansion, args.p, args.r_max)
        inputs = {"a": args.a, "b": args.b, "p": args.p, "r_max": args.r_max}
    elif theorem == "clique":
        res = bounds_mod.girth_bound_clique(args.k, args.p, args.gamma)
        inputs = {"k": args.k, "p": args.p, "gamma": args.gamma}
    elif theorem == "wcol-rule":
        value = bounds_mod.wcol_girth_rule(args.r, args.q)
        report.input = {"r": args.r, "q": args.q}
        report.result = {"theorem": theorem, "wcol_bound": value}
        return
    elif theorem == "lower-poly":
        value = bounds_mod.lower_bound_poly(args.b, args.p, args.alpha)
        report.input = {"b": args.b, "p": args.p, "alpha": args.alpha}
        report.result = {"theorem": theorem, "girth_lower_bound": value}
        return
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(theorem)
    report.input = inputs
    report.result = {
        "theorem": theorem,
        "threshold": res.threshold,
        "integer_girth_threshold": res.integer_girth_threshold,
        "provenance": res.provenance,
    }


def _cmd_verify(args, g: Graph, report: Report) -> None:
    text = Path(args.input).read_text()
    if args.target == "certificate":
        _replay_check(g, formats.parse_certificate(text, p=args.p, exact_ears=args.exact_ears), report)
    elif args.target == "coloring":
        _coloring_check(g, formats.parse_coloring(text), args.threshold, report, proper=args.proper)
    elif args.target == "order":
        order = formats.parse_order(text)
        if len(order) != g.n:
            report.verification = {"order_matches_graph": False}
            report.ok = False
            return
        report.verification, _ = _wreach_check(g, order, WcolBoundParams(r=args.r, q=args.q))
        report.ok = report.verification["all_within_bound"]


def _cmd_density(args, g: Graph, report: Report) -> None:
    result = {}
    if args.nabla is not None:
        r = Fraction(args.nabla)
        value = nabla_r_bruteforce(g, r, cap=args.cap)
        result["nabla_depth"] = str(r)
        result["nabla"] = f"{value.numerator}/{value.denominator}"
        result["nabla_real"] = float(value)
    report.result = result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pathdeg",
                                     description="path degeneracy, colorings, weak orders, girth bounds")
    parser.add_argument("--json", action="store_true", help="emit the report as strict JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_opts(p):
        p.add_argument("--graph", required=True,
                       help="edge-list file path, fixture:NAME, or g6:STRING")
        p.add_argument("--subdivide", type=int, default=0, metavar="K",
                       help="subdivide every edge K times after loading")

    p = sub.add_parser("analyze", help="order, size, girth, mad summary")
    add_graph_opts(p)

    p = sub.add_parser("check", help="decide p-path degeneracy")
    add_graph_opts(p)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--exact-ears", action="store_true")
    p.add_argument("--oracle", action="store_true", help="force the backtracking oracle")

    p = sub.add_parser("color-arb", help="cycle-rainbow coloring with r+1 colors")
    add_graph_opts(p)
    p.add_argument("-r", type=int, required=True)

    p = sub.add_parser("color-acyclic", help="proper cycle-rainbow coloring")
    add_graph_opts(p)
    p.add_argument("-r", type=int, required=True)

    p = sub.add_parser("wcol-order", help="weak-coloring order construction")
    add_graph_opts(p)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-q", type=int, required=True)

    p = sub.add_parser("bounds", help="evaluate a girth threshold")
    p.add_argument("theorem", choices=["polynomial", "minor-closed", "subexponential",
                                       "clique", "wcol-rule", "lower-poly"])
    p.add_argument("-a", type=float, default=1.0)
    p.add_argument("-b", type=float, default=1.0)
    p.add_argument("-d", type=float, default=6.0)
    p.add_argument("-k", type=int, default=5)
    p.add_argument("-p", type=int, default=2)
    p.add_argument("-r", type=int, default=2)
    p.add_argument("-q", type=int, default=4)
    p.add_argument("--gamma", type=float, default=0.638)
    p.add_argument("--alpha", type=float, default=0.75)
    p.add_argument("--r-max", type=int, default=10_000)

    p = sub.add_parser("verify", help="re-verify an emitted artifact")
    p.add_argument("target", choices=["certificate", "coloring", "order"])
    add_graph_opts(p)
    p.add_argument("--input", required=True, help="path to the artifact file")
    p.add_argument("-p", type=int, default=2)
    p.add_argument("-r", type=int, default=2)
    p.add_argument("-q", type=int, default=3)
    p.add_argument("--threshold", type=int, default=2)
    p.add_argument("--proper", action="store_true")
    p.add_argument("--exact-ears", action="store_true")

    p = sub.add_parser("density", help="mad and optional shallow-minor density")
    add_graph_opts(p)
    p.add_argument("--nabla", default=None, metavar="R",
                   help="half-integer depth for the brute-force minor density")
    p.add_argument("--cap", type=int, default=300_000)

    return parser


_HANDLERS = {
    "analyze": _cmd_analyze,
    "check": _cmd_check,
    "color-arb": _cmd_color_arb,
    "color-acyclic": _cmd_color_acyclic,
    "wcol-order": _cmd_wcol_order,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "density": _cmd_density,
}


def run(argv: list[str]) -> Report:
    """Parse argv, execute the command, return the Report."""
    args = build_parser().parse_args(argv)
    report = Report(command=" ".join(argv))
    try:
        g = None
        if "graph" in args:
            g = _load_graph(args.graph, args.subdivide)
            report.input = _summary(g)
        _HANDLERS[args.command](args, g, report)
    except Exception as exc:
        report.result = {"error": type(exc).__name__, "message": str(exc)}
        report.ok = False
    return report


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    as_json = "--json" in argv
    report = run(argv)
    print(report.render(as_json=as_json))
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
