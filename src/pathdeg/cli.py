"""Command-line surface: `pathdeg -h` lists the commands and
`pathdeg <command> -h` a command's options.

Every constructive output (certificate, coloring, order) is re-verified
in-process before it is emitted and the verdict is part of the report;
the exit status is 0 exactly when all requested verifications pass.

Reports are deterministic key/value documents with a stable field order;
--json, before or after the command, switches to strict JSON.  Graphs
come from edge-list files, `fixture:NAME`, or `g6:STRING`, optionally
subdivided with --subdivide.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
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
    exact_ear_certificate,
    find_p_reduction,
    is_p_path_degenerate,
    replay_certificate,
)
from .wcol import LinearOrder, WcolBoundParams, weak_order, wreach_bound_ok, wreach_maxima


@dataclass
class Report:
    command: str
    input: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)
    verification: dict = field(default_factory=dict)
    ok: bool = True

    def to_dict(self) -> dict:
        return dict(vars(self))

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


def _cmd_analyze(args, g: Graph, report: Report) -> None:
    report.result = {"max_degree": g.max_degree()}


def _cmd_check(args, g: Graph, report: Report) -> None:
    if args.oracle:
        verdict = backtrack_degenerate(g, args.p)
        report.result = {"p": args.p, "degenerate": verdict, "engine": "backtracking"}
        return
    verdict = is_p_path_degenerate(g, args.p)
    report.result = {"p": args.p, "degenerate": verdict.degenerate, "engine": "greedy"}
    if verdict.degenerate:
        cert = exact_ear_certificate(verdict.certificate) if args.exact_ears else verdict.certificate
        report.result["certificate"] = formats.serialize_certificate(cert).splitlines()
        _replay_check(g, cert, report)
    else:
        report.result["witness_order"] = verdict.witness.n
        report.result["witness_size"] = verdict.witness.m
        report.result["witness_vertices"] = list(verdict.witness_vertices)
        report.verification["witness_irreducible"] = find_p_reduction(verdict.witness, args.p) is None


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


def _cmd_color(args, g: Graph, report: Report) -> None:
    """color-arb: r+1 colors, every cycle rainbow up to r+1.  color-acyclic:
    a proper coloring within max(max degree, r) colors, rainbow up to r."""
    r = args.r
    if args.command == "color-arb":
        coloring, t, proper, palette = arboricity_coloring(g, r), r + 1, False, r + 1
    else:
        coloring, t, proper, palette = acyclic_edge_coloring(g, r), r, True, max(g.max_degree(), r)
    report.result = {
        "r": r,
        "colors_used": coloring.num_colors,
        "coloring": formats.serialize_coloring(coloring).splitlines(),
    }
    _coloring_check(g, coloring, t, report, proper=proper, palette=palette)


def _wreach_check(g: Graph, order: LinearOrder, params: WcolBoundParams, report: Report) -> int:
    """Check max |WReach_x| against its bound for x = 0..r and record the
    outcome.  Returns max |WReach_r|, the weak r-coloring number under
    the order."""
    maxima = wreach_maxima(g, order, params.r)
    per_x = {str(x): {"max_wreach": worst, "ok": wreach_bound_ok(worst, x, params)}
             for x, worst in enumerate(maxima)}
    report.verification = {"bound_per_radius": per_x,
                           "all_within_bound": all(check["ok"] for check in per_x.values())}
    return maxima[-1]


def _cmd_wcol_order(args, g: Graph, report: Report) -> None:
    params = WcolBoundParams(r=args.r, q=args.q)
    order = weak_order(g, params)
    report.result = {
        "r": args.r,
        "q": args.q,
        "order": formats.serialize_order(order).strip(),
        "wcol_under_order": _wreach_check(g, order, params, report),
    }


def _subexponential(a: float, b: float, p: int, r_max: int) -> bounds_mod.BoundResult:
    """The sub-exponential threshold for the envelope a*(r + 1/2)**b."""
    if not a > 0 or not b >= 0:
        raise ValueError("a must be positive and b non-negative")
    # a*(r + 1/2)**b in decimal, so that it compares with the integer
    # 2**r far past the float range; rounding up keeps the envelope at
    # or above its exact value, and an overflow gives Infinity, which
    # lets r_max end the search (Python 3.10's localcontext takes no kwargs)
    a, b, half = decimal.Decimal(a), decimal.Decimal(b), decimal.Decimal("0.5")
    with decimal.localcontext() as ctx:
        ctx.Emax, ctx.rounding = decimal.MAX_EMAX, decimal.ROUND_CEILING
        ctx.traps[decimal.Overflow] = False
        return bounds_mod.girth_bound_subexponential(lambda r: a * (r + half) ** b, p, r_max)


# theorem -> (its options, in report order; the evaluator taking them in
# that order; the result key of a plain number, or None for a BoundResult)
_BOUNDS = {
    "polynomial": (("a", "b", "p"),
                   lambda a, b, p: bounds_mod.girth_bound_polynomial(bounds_mod.ExpansionParams(a, b), p), None),
    "minor-closed": (("d", "p"), bounds_mod.girth_bound_minor_closed, None),
    "subexponential": (("a", "b", "p", "r_max"), _subexponential, None),
    "clique": (("k", "p", "gamma"), bounds_mod.girth_bound_clique, None),
    "wcol-rule": (("r", "q"), bounds_mod.wcol_girth_rule, "wcol_bound"),
    "lower-poly": (("b", "p", "alpha"), bounds_mod.lower_bound_poly, "girth_lower_bound"),
}


def _cmd_bounds(args, _g: None, report: Report) -> None:
    names, evaluate, key = _BOUNDS[args.theorem]
    inputs = {name: getattr(args, name) for name in names}
    value = evaluate(*inputs.values())
    report.input = inputs
    if key is not None:
        report.result = {"theorem": args.theorem, key: value}
    else:
        report.result = {
            "theorem": args.theorem,
            "threshold": value.threshold,
            "integer_girth_threshold": value.integer_girth_threshold,
            "provenance": value.provenance,
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
            return
        _wreach_check(g, order, WcolBoundParams(r=args.r, q=args.q), report)


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

    def command(name, help, handler, graph=True, targets=None):
        """The subparser `name`, dispatching to `handler`: a leading
        `target` among `targets` if given, then the graph options."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if targets:
            p.add_argument("target", choices=targets)
        if graph:
            p.add_argument("--graph", required=True,
                           help="edge-list file path, fixture:NAME, or g6:STRING")
            p.add_argument("--subdivide", type=int, default=0, metavar="K",
                           help="subdivide every edge K times after loading")
        return p

    command("analyze", "order, size, girth, mad summary", _cmd_analyze)

    p = command("check", "decide p-path degeneracy", _cmd_check)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("--exact-ears", action="store_true")
    p.add_argument("--oracle", action="store_true", help="force the backtracking oracle")

    p = command("color-arb", "cycle-rainbow coloring with r+1 colors", _cmd_color)
    p.add_argument("-r", type=int, required=True)

    p = command("color-acyclic", "proper cycle-rainbow coloring", _cmd_color)
    p.add_argument("-r", type=int, required=True)

    p = command("wcol-order", "weak-coloring order construction", _cmd_wcol_order)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-q", type=int, required=True)

    p = command("bounds", "evaluate a girth threshold", _cmd_bounds, graph=False)
    p.add_argument("theorem", choices=list(_BOUNDS))
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

    p = command("verify", "re-verify an emitted artifact", _cmd_verify, targets=["certificate", "coloring", "order"])
    p.add_argument("--input", required=True, help="path to the artifact file")
    p.add_argument("-p", type=int, default=2)
    p.add_argument("-r", type=int, default=2)
    p.add_argument("-q", type=int, default=3)
    p.add_argument("--threshold", type=int, default=2)
    p.add_argument("--proper", action="store_true")
    p.add_argument("--exact-ears", action="store_true")

    p = command("density", "mad and optional shallow-minor density", _cmd_density)
    p.add_argument("--nabla", default=None, metavar="R",
                   help="half-integer depth for the brute-force minor density")
    p.add_argument("--cap", type=int, default=300_000)

    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by `build_parser`; --json may also follow the command."""
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if "--json" in extra:
        args.json = True
        extra = [arg for arg in extra if arg != "--json"]
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _all_hold(checks: dict) -> bool:
    """True exactly when every boolean in `checks`, at any depth, holds."""
    return all(_all_hold(v) if isinstance(v, dict) else v
               for v in checks.values() if isinstance(v, (bool, dict)))


def _execute(args: argparse.Namespace, argv: list[str]) -> Report:
    report = Report(command=" ".join(argv))
    try:
        g = None
        if "graph" in args:
            g = _load_graph(args.graph, args.subdivide)
            report.input = _summary(g)
        args.handler(args, g, report)
        report.ok = _all_hold(report.verification)
    except Exception as exc:
        report.result = {"error": type(exc).__name__, "message": str(exc)}
        report.ok = False
    return report


def run(argv: list[str]) -> Report:
    """Parse argv, execute the command, return the Report."""
    return _execute(_parse(argv), argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    report = _execute(args, argv)
    try:
        print(report.render(as_json=args.json))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early.  Point stdout at devnull so the flush at
        # interpreter exit does not raise again, and report the failure.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
