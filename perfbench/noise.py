#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics: the noise floor.

    python3 perfbench/noise.py --workloads ladder,corpus,cli --seeds 1-10

Runs perfbench/run.py once per (workload, seed, trace mode), one run at a
time, each for BENCHMARK.json's run_seconds, untraced then traced.  It
prints for every end-to-end and per-layer metric the median over seeds
and the interquartile range as a share of that median, next to the bound
in BENCHMARK.json where there is one.  Raw results go to
perfbench/out/noise-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return {"seed": seed, "trace": trace, **json.loads(proc.stdout.strip().splitlines()[-1])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="ladder,corpus,cli")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    (HERE / "out").mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, trace, bench["run_seconds"])
                for seed in seed_list(args.seeds) for trace in (0, 1)]
        (HERE / "out" / f"noise-{workload}.json").write_text(json.dumps(runs, indent=1) + "\n")
        print(f"{workload}: seeds {args.seeds}, {bench['run_seconds']} s per run")
        for trace in (0, 1):
            mode = [r for r in runs if r["trace"] == trace]
            for name in mode[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in mode]
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                share = (q3 - q1) / median if median else float("nan")
                bound = bounds.get(name)
                verdict = "" if bound is None else f"  bound {bound}  {'ok' if share <= bound / 3 else 'WIDE'}"
                print(f"  {name:40s} median {median:12.6g}  iqr/median {share:7.2%}{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
