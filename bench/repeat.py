"""Repeat the benchmark over seeds and summarize each metric's spread.

    python3 bench/repeat.py --runs 10 --seconds 40 --out summary.json
    python3 bench/repeat.py --runs 2 --seconds 40 --trace 1 --workloads sweep_then_baselines

Runs ``bench/run.py`` once per (workload, seed), seeds 1..runs, one after
another, and reports per workload and metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  The JSON
output also records the machine: CPU count, git revision and the
Python, numpy and scipy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import spans

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def machine() -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "git_revision": rev,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else float("nan"))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    report = {"machine": machine(), "run_seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    if args.trace:
        report["layer_moves"] = {layer.name: layer.moves for layer in spans.LAYERS}
    for name in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            runs.append(json.loads(last))
        metrics = {}
        for key in runs[0]["metrics"]:
            metrics[key] = summarize([r["metrics"][key]["value"] for r in runs])
            metrics[key]["unit"] = runs[0]["metrics"][key]["unit"]
        report["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for key, m in metrics.items():
            if key in bounds and "spread" in m:
                flag = "" if m["spread"] < bounds[key] / 3 else "   above a third of the bound"
                print(f"{name:<22} {key:<14} median {m['median']:<12.6g} "
                      f"spread {m['spread']:.3f} (bound {bounds[key]}){flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
