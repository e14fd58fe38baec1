#!/usr/bin/env python3
"""End-to-end benchmark of pathdeg's verified pipeline.

    python3 perfbench/run.py --workload {ladder,corpus,cli} --seed N --seconds S --trace {0,1} [--smoke]

Offline, one process, one caller, one operation at a time (a closed loop
with a single client; no threads).  The run builds its inputs from the
seed, then repeats passes over them for about S seconds and reports
medians.  Every output is checked; a wrong answer aborts with exit code 3
and no result line.  An operation that raises counts as failed and is
not retried.  Times are in reference seconds: wall time scaled by the
machine speed measured alongside (speed.py); the record keeps raw times.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes and prints the per-layer metrics of the traced ones
(see tracing.py).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A fuller record (context, inputs, per-op medians, failures, and for
traced runs the spans of the last traced pass) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ladder", "corpus", "cli")
MIN_PASSES = 3              # untraced passes in a --trace 0 run
MIN_TRACED_PASSES = 2       # of each kind in a --trace 1 run
SETUP_REPEATS = 5
PERCENTILES = (99.9, 99.5, 99, 98, 97, 96, 95, 94, 92, 90, 88, 85, 82, 80, 75, 70, 65, 60, 55, 50)
# ROADMAP re-anchor: greedy reduction took 0.21 s on an 800-vertex
# subdivided random cubic graph at p=4, and scales quadratically
BASELINE_GREEDY_S, BASELINE_N = 0.21, 800
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "scaling_exponent": "1", "success_ratio": "ratio", "peak_rss_mb": "MB",
}


def import_program() -> None:
    """Put src/ beside this directory first on the import path, and
    check that pathdeg really comes from there."""
    src = ROOT / "src"
    if not (src / "pathdeg" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pathdeg sources under {src}")
    sys.path.insert(0, str(src))
    import pathdeg
    if Path(pathdeg.__file__).resolve().parent != (src / "pathdeg").resolve():
        raise SystemExit(f"perfbench: imported pathdeg from {pathdeg.__file__}, not {src}")


def set_up(args, workdir: Path, clock):
    """Import pathdeg afresh and build the workload's inputs.  Earlier
    imports are dropped from sys.modules first, so every repeat pays the
    import again (with the bytecode cache warm after the first)."""
    for key in [k for k in sys.modules if k in ("pathdeg", "workloads") or k.startswith("pathdeg.")]:
        del sys.modules[key]
    t0 = clock()
    importlib.import_module("pathdeg.cli")
    importlib.import_module("pathdeg.formats")
    import_s = clock() - t0
    workloads = importlib.import_module("workloads")
    return workloads, workloads.BUILDERS[args.workload](args.seed, args.smoke, workdir), import_s


def git_sha() -> str:
    """HEAD of the checkout's .git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def tail(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest percentile
    with at least ten samples beyond it; the maximum if there are fewer
    than eleven samples."""
    xs = sorted(values)
    for pct in PERCENTILES:
        value = xs[max(0, math.ceil(pct / 100 * len(xs)) - 1)]
        beyond = sum(1 for x in xs if x > value)
        if beyond >= 10:
            return pct, value, beyond
    return 100.0, xs[-1], 0


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def scaling_exponent(wl, per_op: list[float]) -> tuple[float, str]:
    """Log-log slope of mean operation time against mean vertex count
    from the workload's small scaling group to its large one."""
    small, ix1, large, ix2 = wl.scaling
    t1, t2 = (statistics.fmean(per_op[i] for i in ix) for ix in (ix1, ix2))
    n1, n2 = (statistics.fmean(wl.sizes[i] for i in ix) for ix in (ix1, ix2))
    return math.log(t2 / t1) / math.log(n2 / n1), f"{small} (n={n1:.0f}) -> {large} (n={n2:.0f})"


class Pass:
    """One pass over the workload's ops.  Untraced, op i runs
    `wl.repeats[i]` times in a row; traced, once, so that layer totals
    cover exactly one pass over the inputs.  `raw` holds each op's median
    wall seconds (reference-task time excluded), `times` its median in
    reference seconds (see speed.py)."""

    def __init__(self, wl, workloads_mod, ref, tracer=None):
        n = len(wl.ops)
        repeats = wl.repeats if tracer is None else [1] * n
        self.raw = [0.0] * n
        self.times = [0.0] * n
        self.failures: list[tuple[int, str]] = []
        self.attempted = sum(repeats)
        outputs = [None] * n
        gc.collect()
        self.start = ref.now()
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = i
            runs = []
            for _ in range(repeats[i]):
                s = ref.now()
                try:
                    outputs[i] = wl.run_op(op)
                except workloads_mod.WrongAnswer:
                    raise
                except Exception as exc:  # a failed operation: counted, not retried
                    self.failures.append((i, f"{type(exc).__name__}: {exc}"[:300]))
                runs.append((s, ref.now()))
            self.raw[i] = statistics.median(e - s for s, e in runs)
            self.times[i] = statistics.median((e - s) * ref.scale(s, e) for s, e in runs)
        self.end = ref.now()
        self.scale = ref.scale(self.start, self.end)
        self.summary = wl.end_of_pass(outputs) if wl.end_of_pass else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest inputs, for the smoke test")
    args = ap.parse_args(argv)

    import_program()
    import speed
    import tracing

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    ref = speed.Reference()
    setups, raw_setups, imports = [], [], []
    with ref:
        for i in range(SETUP_REPEATS):
            t0 = ref.now()
            workloads, wl, import_s = set_up(args, workdir, ref.now)
            t1 = ref.now()
            raw_setups.append(t1 - t0)
            setups.append((t1 - t0) * ref.scale(t0, t1))
            imports.append(import_s)
            if i < SETUP_REPEATS - 1 and wl.cleanup:
                wl.cleanup()
            gc.collect()

    lines = [f"# pathdeg benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}{' smoke' if args.smoke else ''}",
             f"# context: git={git_sha()} python={platform.python_version()} nproc={os.cpu_count()} "
             f"closed loop, 1 caller, single thread",
             f"# inputs: {len(wl.ops)} ops per pass; ops by (name, n, m) in the record file"]
    if args.workload != "corpus":
        lines += [f"#   {name} n={n} m={m}" for name, n, m in wl.inputs]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "git": git_sha(), "python": platform.python_version(),
              "nproc": os.cpu_count(), "inputs": wl.inputs, "setup_runs_s": setups, "setup_runs_raw_s": raw_setups,
              "import_runs_raw_s": imports, "reference_nominal_s": speed.NOMINAL_S}
    try:
        with ref:
            if args.trace:
                result = traced_run(args, wl, workloads, ref, tracing, lines, record)
            else:
                result = untraced_run(args, wl, workloads, ref, lines, record)
    except workloads.WrongAnswer as exc:
        print("\n".join(lines))
        print(f"perfbench: WRONG ANSWER, run aborted: {exc}", file=sys.stderr)
        return 3
    finally:
        if wl.cleanup:
            wl.cleanup()
    if args.workload in workloads.SKIPPED:
        lines.append(f"# skipped check: {workloads.SKIPPED[args.workload]}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record["reference_samples_s"] = ref.durations
    (OUT / f"{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


def _passes_loop(args, one_round, rounds_min: int) -> list:
    """Repeat one_round() until the next round would overrun --seconds."""
    rounds, start = [], perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(one_round())
        took = perf_counter() - t0
        if len(rounds) >= rounds_min and perf_counter() - start + took > args.seconds:
            return rounds


def _failure_lines(passes, wl) -> tuple[int, int, list[str]]:
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    seen = {}
    for p in passes:
        for i, msg in p.failures:
            seen.setdefault(i, msg)
    out = [f"# failures: fail_ratio={failed / attempted:.6g} ({failed} failed / {attempted} attempted)"]
    out += [f"#   op {i}: {msg}" for i, msg in sorted(seen.items())]
    return attempted, failed, out


def untraced_run(args, wl, workloads, ref, lines, record) -> dict:
    passes = _passes_loop(args, lambda: Pass(wl, workloads, ref), MIN_PASSES)
    per_op = [statistics.median(p.times[i] for p in passes) for i in range(len(wl.ops))]
    raw_per_op = [statistics.median(p.raw[i] for p in passes) for i in range(len(wl.ops))]
    walls = [sum(p.times) for p in passes]
    pct, tail_value, beyond = tail(per_op)
    exponent, between = scaling_exponent(wl, per_op)
    attempted, failed, fail_lines = _failure_lines(passes, wl)
    values = {
        "setup_s": statistics.median(record["setup_runs_s"]),
        "wall_s": sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "scaling_exponent": exponent,
        "success_ratio": 1 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups, each importing pathdeg afresh "
                   f"(raw median {statistics.median(record['setup_runs_raw_s']):.4f} s, "
                   f"import {statistics.median(record['import_runs_raw_s']):.4f} s)",
        "wall_s": f"sum of per-op medians over {len(passes)} passes (raw {sum(raw_per_op):.4f} s; "
                  f"pass-to-pass spread {spread(walls):.1%})",
        "op_p50_ms": f"median over {len(per_op)} ops of each op's median over passes "
                     f"(raw {statistics.median(raw_per_op) * 1e3:.4f} ms)",
        "op_tail_ms": f"p{pct:g} of {len(per_op)} op medians, {beyond} beyond it "
                      f"(raw {tail(raw_per_op)[1] * 1e3:.4f} ms)",
        "scaling_exponent": between,
        "success_ratio": "1 - fail_ratio",
        "peak_rss_mb": "high-water resident set of this process",
    }
    lines += fail_lines
    if passes[0].summary:
        lines.append(f"# pass summary: {passes[0].summary}")
    lines.append(f"# times in reference seconds (speed.py): median scale {ref.median_scale():.4f} "
                 f"over {len(ref.durations)} reference samples (spread {spread(ref.durations):.1%})")
    lines += [f"metric {k} = {v:.6g} {END_TO_END_UNITS[k]}  ({notes[k]})" for k, v in values.items()]
    record.update(per_op_median_s=per_op, raw_per_op_median_s=raw_per_op, pass_walls_s=walls,
                  pass_op_times_s=[p.times for p in passes], failures=fail_lines)
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}}


def traced_run(args, wl, workloads, ref, tracing, lines, record) -> dict:
    tracer = tracing.Tracer(ref.now)
    totals: list[dict] = []

    def one_round():
        plain = Pass(wl, workloads, ref)
        tracer.new_pass()
        tracer.install()
        try:
            traced = Pass(wl, workloads, ref, tracer)
        finally:
            tracer.uninstall()
        totals.append(tracer.pass_totals(len(wl.ops), traced.scale))
        return plain, traced

    rounds = _passes_loop(args, one_round, MIN_TRACED_PASSES)
    plain = [r[0] for r in rounds]
    traced = [r[1] for r in rounds]
    values = {name: statistics.median(t[name] for t in totals) for name in tracing.PER_LAYER_UNITS
              if name != "trace.overhead_s"}
    untraced_wall = statistics.median(sum(p.times) for p in plain)
    traced_wall = statistics.median(sum(p.times) for p in traced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    attempted, failed, fail_lines = _failure_lines(plain + traced, wl)
    lines += fail_lines
    lines.append(f"# errors by layer (last traced pass): {tracer.layer_errors or 'none'}")
    lines.append("# waiting: 0 s in every layer by construction (single thread, one caller); not measured")
    lines.append("# layer times in reference seconds: each traced pass scaled by its median reference sample")
    lines.append(f"# tracing overhead: traced wall {traced_wall:.4f} s - untraced wall {untraced_wall:.4f} s "
                 f"= {values['trace.overhead_s']:.4f} s ({len(traced)} passes each)")
    lines += _confirmations(args.workload, values, statistics.median(sum(p.times) for p in traced), tracing)
    if args.workload == "ladder":
        lines += _ladder_baseline(wl, tracer)
    lines += [f"layer {k} = {v:.6g} {tracing.PER_LAYER_UNITS[k]}" for k, v in values.items()]
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz"
    count = tracer.write_spans(spans_path)
    lines.append(f"# spans of the last traced pass: {count} in {spans_path.relative_to(ROOT)}")
    record.update(failures=fail_lines, per_pass_layers=totals)
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in values.items()}}


def _confirmations(workload: str, values: dict, op_time: float, tracing) -> list[str]:
    """Does the traced run bear out why the workload was chosen?"""
    times = {k: values[k] for k in tracing.TIME_METRICS}
    by_layer: dict[str, float] = {}
    for k, v in times.items():
        by_layer[k.split(".")[0]] = by_layer.get(k.split(".")[0], 0.0) + v
    if workload == "ladder":
        top = max(times, key=times.get)
        return [f"# workload check: largest self time is {top} ({times[top]:.4f} s); "
                f"expected reduction.greedy_s: {'yes' if top == 'reduction.greedy_s' else 'NO'}"]
    if workload == "cli":
        top = max(by_layer, key=by_layer.get)
        return [f"# workload check: largest layer is {top} ({by_layer[top]:.4f} s of "
                f"{sum(by_layer.values()):.4f} s traced); expected graph: {'yes' if top == 'graph' else 'NO'}"]
    share = (values["density.mad_s"] + values["reduction.greedy_s"]) / op_time
    return [f"# workload check: density.mad_s + reduction.greedy_s = {share:.1%} of traced op time; "
            f"expected over half: {'yes' if share > 0.5 else 'NO'}"]


def _ladder_baseline(wl, tracer) -> list[str]:
    """Per-rung greedy time per call, beside the ROADMAP baseline scaled
    quadratically to the rung's vertex count (last traced pass)."""
    greedy = tracer.per_op_time(("reduction.is_p_path_degenerate",))
    out = ["# ladder greedy per call (is_p_path_degenerate, p=4, uniform variant) vs ROADMAP "
           f"baseline {BASELINE_GREEDY_S} s at n={BASELINE_N}, scaled by (n/{BASELINE_N})^2:"]
    rungs: dict[int, list[int]] = {}
    for i, (x, _) in enumerate(wl.ops):
        rungs.setdefault(x.rung, []).append(i)
    for rung, idx in rungs.items():
        name = f"cubic{rung}"
        uniform = [i for i in idx if wl.ops[i][0].variant == "uniform"]
        n = wl.sizes[uniform[0]]
        measured = statistics.fmean(greedy[i] for i in uniform)
        expected = BASELINE_GREEDY_S * (n / BASELINE_N) ** 2
        out.append(f"#   {name} n={n}: {measured:.4f} s, baseline {expected:.4f} s, ratio {measured / expected:.2f}")
    return out


if __name__ == "__main__":
    sys.exit(main())
