"""Benchmark of the coupled_do pipeline: learn a disturbance model, estimate it online.

Usage, from the root of a checkout:

    python3 bench/run.py --workload learn_then_hodo --seed 1 --seconds 40 --trace 0

The benchmark drives ``coupled_do.cli.main`` in-process on one workload
per process, on inputs generated from ``--seed``, and repeats the
workload's command sequence for about ``--seconds`` seconds (at least
three iterations).  It checks every output, prints a human-readable
report, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are normalized for host speed (``hostspeed.py``): a probe sampled
every 10 ms while the program runs measures how much the shared host
slows the core down, and a time is reported as the seconds the same work
takes on an uncontended core.  The raw wall times are printed above the
JSON line.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` they are the per-layer ones: untraced and
traced iterations alternate, spans of every layer in ``spans.LAYERS`` are
kept in memory (those of the last traced iteration are written to
``.bench_work/`` at the end), and the tracing overhead is the traced minus
the untraced median time.  The traced run sets ``COUPLED_DO_THREADS=1``
so that sweep cells run one after another; concurrent spans would break
the self-time identity.  Span times are wall times, probes included.

The program is imported from ``src/`` of the checkout, never from an
installed copy; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import hostspeed
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_ITERATIONS = 3
MAX_ITERATIONS = 200      # bounds a run whose commands fail at once
MIN_TRACED_PAIRS = 2
SETUP_REPEATS = 9
# Only hostspeed, which needs nothing but signal and time, is imported
# before the clock starts.
SETUP_PROBE = ("import time, hostspeed\n"
               "sampler = hostspeed.Sampler(hostspeed.python_probe,"
               " hostspeed.PYTHON_NOMINAL_NS)\n"
               "sampler.start()\n"
               "start = time.perf_counter()\n"
               "import coupled_do.cli\n"
               "elapsed = time.perf_counter() - start\n"
               "sampler.stop()\n"
               "print(elapsed, sampler.normalized_s(elapsed))\n"
               "print(coupled_do.cli.__file__)\n")


def measure_setup() -> tuple[list[float], list[float]]:
    """Import time of coupled_do.cli, each in a fresh interpreter: raw and normalized."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    raw, normalized = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 3 or not Path(words[2]).is_relative_to(SRC):
            raise RuntimeError(f"importing coupled_do.cli from {SRC} failed:\n{proc.stderr}")
        raw.append(float(words[0]))
        normalized.append(float(words[1]))
    return raw, normalized


def import_program():
    sys.path.insert(0, str(SRC))
    import coupled_do.cli
    if not Path(coupled_do.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"coupled_do was imported from {coupled_do.cli.__file__}, not {SRC}")
    return coupled_do.cli.main


class ThreadCounter:
    """Peak number of threads alive at once among those started while installed.

    This is the worker count the sweep's thread pool actually used.
    """

    def __init__(self):
        self.started = []
        self.peak = 0
        self._original = threading.Thread.start

    def __enter__(self):
        counter, original = self, self._original

        def start(thread):
            counter.started.append(thread)
            original(thread)
            counter.peak = max(counter.peak, sum(t.is_alive() for t in counter.started))
        threading.Thread.start = start
        return self

    def __exit__(self, *exc):
        threading.Thread.start = self._original


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def run_untraced(workload, main, config, work, seconds, sampler):
    """Iterations until the next one would overrun ``seconds``; at least three."""
    results, threads, costs = [], [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        with ThreadCounter() as counter:
            results.append(workloads.run_iteration(
                workload, main, config, work / f"it{len(results):03d}", sampler))
        threads.append(counter.peak)
        costs.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(results) >= MAX_ITERATIONS or (
                len(results) >= MIN_ITERATIONS and elapsed + statistics.median(costs) > seconds):
            return results, threads


def run_traced(workload, main, config, work, seconds, sampler):
    """Alternating untraced and traced iterations; at least two pairs."""
    tracer = spans.Tracer()
    untraced, traced, summaries = [], [], []
    costs = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        untraced.append(workloads.run_iteration(
            workload, main, config, work / f"it{2 * len(traced):03d}", sampler))
        tracer.clear()
        tracer.install()
        try:
            traced.append(workloads.run_iteration(
                workload, main, config, work / f"it{2 * len(traced) + 1:03d}", sampler))
        finally:
            tracer.uninstall()
        summaries.append(spans.summarize(tracer))
        costs.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(traced) >= MAX_ITERATIONS // 2 or (
                len(traced) >= MIN_TRACED_PAIRS and elapsed + statistics.median(costs) > seconds):
            break
    WORK.mkdir(exist_ok=True)
    spans.write_spans(WORK / f"spans-{workload.name}.csv", tracer)
    return untraced, traced, summaries, tracer.absent


def layer_metrics(summaries, untraced, traced) -> tuple[dict, int]:
    """Per-layer metrics (medians over traced iterations) and the worst root gap."""
    metrics = {}
    for layer in spans.LAYERS:
        per_it = [s["layers"][layer.name] for s in summaries]
        name = layer.name
        metrics[f"{name}.calls"] = (statistics.median(p["calls"] for p in per_it), "count")
        metrics[f"{name}.total_s"] = (statistics.median(p["total_s"] for p in per_it), "s")
        metrics[f"{name}.self_s"] = (statistics.median(p["self_s"] for p in per_it), "s")
        if layer.per_call:
            pooled = np.concatenate([p["durations_us"] for p in per_it])
            metrics[f"{name}.p50_us"] = (percentile(pooled, 50), "us")
            metrics[f"{name}.p99_us"] = (percentile(pooled, 99), "us")
    for counter in spans.COUNTERS:
        unit = "B" if counter.endswith(".bytes") else "count"
        metrics[counter] = (statistics.median(s["counts"].get(counter, 0) for s in summaries),
                            unit)
    overhead = (statistics.median(it.norm_s for it in traced)
                - statistics.median(it.norm_s for it in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, max(s["max_root_gap_ns"] for s in summaries)


def end_to_end_metrics(workload, results, setup) -> dict:
    estimates = [it.accuracy[workload.estimate] for it in results
                 if workload.estimate in it.accuracy]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "norm_wall_s": (statistics.median(it.norm_s for it in results), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "estimate_mae": (statistics.median(estimates) if estimates else 0.0, "delta"),
    }


def describe_times(workload, results) -> list[str]:
    """Raw and normalized times, host slowdown and throughput of each command."""
    walls = sorted(it.wall_s for it in results)
    norms = [it.norm_s for it in results]
    lines = [f"{len(results)} iterations; wall time min {walls[0]:.4f} s, "
             f"median {statistics.median(walls):.4f} s, max {walls[-1]:.4f} s; "
             f"normalized median {statistics.median(norms):.4f} s; host slowdown "
             f"median {statistics.median(1 / it.speed for it in results):.3f}"]
    for command in workload.commands:
        norm = statistics.median(it.command_s.get(command.name, 0.0) for it in results)
        rate = f"{command.units / norm:.6g}" if norm > 0 else "-"
        lines.append(f"  {command.name:<20} normalized {norm:.4f} s, "
                     f"{command.unit_name}_per_s = {rate} 1/s")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "coupled_do" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'coupled_do' / 'cli.py'} is missing",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    setup_raw, setup = ([], []) if args.trace else measure_setup()
    main_fn = import_program()

    work = WORK / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    began = time.perf_counter()
    config = workloads.write_inputs(workload.name, args.seed, work / "inputs")
    input_gen_s = time.perf_counter() - began

    lines = [f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
             f"commands {', '.join(c.name for c in workload.commands)}  "
             f"input generation {input_gen_s:.3f} s (not in any metric)"]
    sampler = hostspeed.Sampler(hostspeed.numpy_probe(), hostspeed.NUMPY_NOMINAL_NS)
    if args.trace:
        os.environ["COUPLED_DO_THREADS"] = "1"
        with sampler:
            untraced, traced, summaries, absent = run_traced(
                workload, main_fn, config, work, args.seconds, sampler)
        results = untraced + traced
        metrics, gap = layer_metrics(summaries, untraced, traced)
        metrics["host.slowdown"] = (1 / sampler.speed(), "ratio")
        lines.append(f"{len(traced)} traced and {len(untraced)} untraced iterations; "
                     f"largest |sum of self times - root duration| = {gap} ns")
        lines += describe_times(workload, untraced)
        if absent:
            lines.append("absent layers (reported as 0): " + ", ".join(absent))
        consistent = gap == 0
    else:
        with sampler:
            results, threads = run_untraced(workload, main_fn, config, work, args.seconds,
                                            sampler)
        metrics = end_to_end_metrics(workload, results, setup)
        lines.append(f"setup: import of coupled_do.cli, {len(setup)} fresh interpreters, "
                     f"raw median {statistics.median(setup_raw):.4f} s")
        lines += describe_times(workload, results)
        lines.append(f"worker threads in use at once: {max(threads)} "
                     f"(0: the calling thread did all the work)")
        consistent = True

    attempted = sum(it.attempted for it in results)
    failed = sum(it.failed for it in results)
    lines.append(f"operations attempted {attempted}, failed {failed}, "
                 f"failed_frac {failed / attempted:.4f} ratio")
    accuracy = {}
    for it in results:
        for key, value in it.accuracy.items():
            accuracy.setdefault(key, []).append(value)
    for key, values in sorted(accuracy.items()):
        lines.append(f"accuracy {key} = {statistics.median(values):.6g}"
                     + ("" if len(set(values)) == 1 else "  (differs between iterations)"))
    errors = [e for it in results for e in it.errors]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<48} {value:>16.6g} {unit}")
    print("\n".join(lines))
    if errors:
        print("failures:\n  " + "\n  ".join(errors[:20]), file=sys.stderr)
    else:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
