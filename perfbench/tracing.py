"""Spans around the package's public functions, recorded from the
benchmark's side.

`Tracer.install` replaces each traced function by a wrapper in every
pathdeg module that holds it, including names one module imports from
another (`pathdeg.cli.mad`, `pathdeg.colorings.greedy_reduce`,
`pathdeg.colorings.enumerate_cycles`, `pathdeg.wcol.greedy_reduce`, ...),
so calls the package makes internally are traced too.  `uninstall` puts
the originals back.  A span is (name, start, end, parent span, op id);
spans stay in memory and are written once at the end.  Self time is a
span's duration minus the durations of its direct child spans, so the
self times of all spans add up to the traced time without overlap.

The code is single-threaded and the benchmark has one caller, so no
layer ever waits for another: waiting is zero by construction and is not
measured.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

# "<module>.<function>" for every traced public function
TRACED = (
    "reduction.is_p_path_degenerate", "reduction.greedy_reduce", "reduction.replay_certificate",
    "reduction.find_p_reduction",
    "colorings.arboricity_coloring", "colorings.acyclic_edge_coloring", "colorings.verify_proper",
    "colorings.verify_cycle_rainbow",
    "graph.enumerate_cycles", "graph.girth", "graph.subdivide",
    "density.mad",
    "wcol.weak_order", "wcol.wreach_all",
    "formats.parse_graph6", "formats.parse_edge_list", "formats.parse_certificate", "formats.parse_coloring",
    "formats.parse_order", "formats.to_graph6", "formats.serialize_edge_list",
    "formats.serialize_certificate", "formats.serialize_coloring", "formats.serialize_order",
    "generators.fixture",
    "bounds.girth_bound_polynomial", "bounds.girth_bound_minor_closed", "bounds.girth_bound_subexponential",
    "bounds.girth_bound_clique", "bounds.wcol_girth_rule", "bounds.lower_bound_poly",
    "cli.run",
)
GREEDY = ("reduction.is_p_path_degenerate", "reduction.greedy_reduce")


def _prefixed(prefix: str) -> tuple[str, ...]:
    return tuple(name for name in TRACED if name.startswith(prefix))


# per-layer metric -> (unit, what it sums).  Time metrics sum the self
# time of the named spans; "calls" counts them.
TIME_METRICS = {
    "reduction.greedy_s": GREEDY,
    "reduction.replay_s": ("reduction.replay_certificate",),
    "reduction.witness_check_s": ("reduction.find_p_reduction",),
    "colorings.arboricity_self_s": ("colorings.arboricity_coloring",),
    "colorings.acyclic_self_s": ("colorings.acyclic_edge_coloring",),
    "colorings.verify_proper_s": ("colorings.verify_proper",),
    "colorings.verify_cycle_rainbow_self_s": ("colorings.verify_cycle_rainbow",),
    "graph.enumerate_cycles_s": ("graph.enumerate_cycles",),
    "graph.girth_s": ("graph.girth",),
    "graph.subdivide_s": ("graph.subdivide",),
    "density.mad_s": ("density.mad",),
    "wcol.weak_order_self_s": ("wcol.weak_order",),
    "wcol.wreach_s": ("wcol.wreach_all",),
    "formats.parse_s": _prefixed("formats.parse_"),
    "formats.serialize_s": _prefixed("formats.serialize_") + ("formats.to_graph6",),
    "generators.fixture_s": ("generators.fixture",),
    "bounds.eval_s": _prefixed("bounds."),
    "cli.self_s": ("cli.run",),
}
CALL_METRICS = {
    "reduction.greedy_calls": GREEDY,
    "density.mad_calls": ("density.mad",),
    "wcol.wreach_calls": ("wcol.wreach_all",),
}
STEP_KINDS = {"I": "reduction.steps_isolated", "L": "reduction.steps_leaf", "E": "reduction.steps_ear"}
PER_LAYER_UNITS = {
    **{name: "s" for name in TIME_METRICS},
    **{name: "count" for name in CALL_METRICS},
    "reduction.calls_per_input": "calls/input",
    **{name: "count" for name in STEP_KINDS.values()},
    "graph.cycles_enumerated": "count",
    "graph.errors": "count",
    "trace.overhead_s": "s",
}


def _count_steps(tracer: "Tracer", cert) -> None:
    if cert is not None:
        for step in cert.steps:
            tracer.counts[STEP_KINDS[step.kind]] += 1


# extra counts read off a traced function's result, outside its span
POST = {
    "reduction.is_p_path_degenerate": lambda t, verdict: _count_steps(t, verdict.certificate),
    "reduction.greedy_reduce": lambda t, result: _count_steps(t, result[0]),
    "graph.enumerate_cycles": lambda t, cycles: t.counts.update({"graph.cycles_enumerated": len(cycles)}),
}


class Tracer:
    """Collects spans for one pass at a time; `pass_totals` turns them
    into per-layer numbers and resets for the next pass."""

    def __init__(self, clock=perf_counter) -> None:
        self.op = -1
        self._clock = clock
        self._patched: list[tuple[object, str, object]] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.layer_errors: dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[list] = []          # [span index, time covered by children]
        self._last_error: BaseException | None = None

    def _wrap(self, qualname: str, fn):
        name_id = self._name_ids.setdefault(qualname, len(self._names))
        if name_id == len(self._names):
            self._names.append(qualname)
        layer = qualname.split(".")[0]
        post = POST.get(qualname)
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            idx = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1][0] if stack else -1)
            self.op_id.append(self.op)
            self.end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._last_error:     # count once, in the innermost span
                    self._last_error = exc
                    self.errors[layer] += 1
                raise
            finally:
                t1 = clock()
                self.end[idx] = t1
                stack.pop()
                duration = t1 - t0
                self.self_time[qualname] += duration - frame[1]
                self.calls[qualname] += 1
                if stack:
                    stack[-1][1] += duration
            if post is not None:
                post(self, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "pathdeg" or key.startswith("pathdeg."))]
        for qualname in TRACED:
            module_name, fn_name = qualname.split(".")
            original = getattr(sys.modules[f"pathdeg.{module_name}"], fn_name)
            wrapped = self._wrap(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def pass_totals(self, ops_per_pass: int, scale: float) -> dict[str, float]:
        """Per-layer numbers for the pass traced since the last call, with
        times multiplied by `scale` (wall to reference seconds)."""
        out = {name: scale * sum(self.self_time[q] for q in quals) for name, quals in TIME_METRICS.items()}
        out.update({name: float(sum(self.calls[q] for q in quals)) for name, quals in CALL_METRICS.items()})
        out["reduction.calls_per_input"] = out["reduction.greedy_calls"] / ops_per_pass
        for name in (*STEP_KINDS.values(), "graph.cycles_enumerated"):
            out[name] = float(self.counts[name])
        out["graph.errors"] = float(self.errors["graph"])
        self.layer_errors = dict(self.errors)
        return out

    def per_op_time(self, names) -> Counter:
        """Total duration of the named spans per op id, this pass."""
        ids = {self._name_ids[name] for name in names if name in self._name_ids}
        out: Counter = Counter()
        for i in range(len(self.start)):
            if self.name_id[i] in ids:
                out[self.op_id[i]] += self.end[i] - self.start[i]
        return out

    def write_spans(self, path) -> int:
        """Write the current pass's spans as gzip CSV; returns the count."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{self._names[self.name_id[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]},{self.op_id[i]}\n")
        return len(self.start)

    def new_pass(self) -> None:
        self._reset()
