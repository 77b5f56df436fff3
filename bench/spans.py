"""Layer spans recorded from outside the program.

Each layer is a function or method of ``coupled_do``.  While tracing, the
benchmark replaces it with a wrapper that records a span (layer, start,
end, parent) in memory, in every module namespace where a caller looks
the name up, and on the class for methods.  A layer whose name no longer
exists is reported absent instead of failing the run.

A span's self time is its duration minus the part of it that its child
spans cover, so the self times under a root span sum to the root's
duration.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Layer:
    name: str                      # "<module>.<qualified name>" inside coupled_do
    moves: str                     # the end-to-end metric it should move, on which workload
    per_call: bool = False         # also report p50 and p99 of single calls
    counters: Optional[Callable] = None   # (args, result) -> {counter: increment}


def _gain_held(args, result):
    if getattr(result, "mode", None) != "hodo":
        return {}
    return {"observer.gain_held": getattr(result, "gain_failures", None)}


def _bytes_written(args, result):
    return {"fileio.save_scenario.bytes": os.path.getsize(args[0])}


def _sweep_cells(args, result):
    cells = list(result)
    return {"learner.sweep.cells": len(cells),
            "learner.sweep.cells_failed": sum(getattr(c, "error", None) is not None
                                              for c in cells)}


HODO = "norm_wall_s on learn_then_hodo; no change on sweep_then_baselines"
LOOP = "norm_wall_s on learn_then_hodo and sweep_then_baselines"
TRAJECTORY = "norm_wall_s and peak_rss_mb on learn_then_hodo; absent elsewhere"
FITS = "norm_wall_s on sweep_then_baselines (the sweep), a small share of learn_then_hodo"

LAYERS = (
    Layer("observer.Hodo._design", HODO, per_call=True),       # gain synthesis
    Layer("observer.Hodo.step", HODO, per_call=True),
    Layer("learner.SeparatedModel.output_map", HODO, per_call=True),
    Layer("observer.FirstOrderDo.step", "norm_wall_s on sweep_then_baselines only",
          per_call=True),
    Layer("sim.rk4_step", LOOP, per_call=True),                # plant step
    Layer("sim.run_scenario", LOOP + " (self time: the scenario loop)", counters=_gain_held),
    Layer("fileio.save_scenario", LOOP, counters=_bytes_written),
    Layer("fileio.load_dataset", TRAJECTORY),
    Layer("learner.targets_from_trajectory", TRAJECTORY),
    Layer("learner.fit_rls", FITS, per_call=True),
    Layer("basis.BasisConfig.design_rows", FITS, per_call=True),
    Layer("learner.synthesize_dataset", "norm_wall_s on sweep_then_baselines (the sweep)"),
    Layer("learner.sweep", "norm_wall_s on sweep_then_baselines", counters=_sweep_cells),
    Layer("cli.cmd_learn", "root span: norm_wall_s on learn_then_hodo"),
    Layer("cli.cmd_simulate", "root span: " + LOOP),
    Layer("cli.cmd_sweep", "root span: norm_wall_s on sweep_then_baselines"),
)

COUNTERS = ("observer.gain_held", "fileio.save_scenario.bytes",
            "learner.sweep.cells", "learner.sweep.cells_failed")


class Tracer:
    """Records spans as parallel lists: layer index, start, end, parent index."""

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.layer = []
        self.start = []
        self.end = []
        self.parent = []
        self.counts = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []          # (owner, attribute, original)
        self.absent = []

    def clear(self) -> None:
        self.layer, self.start, self.end, self.parent = [], [], [], []
        self.counts = {}

    def record(self, index: int, fn: Callable, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            span = len(self.layer)
            self.layer.append(index)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0)
            self.end.append(0)
        stack.append(span)
        self.start[span] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[span] = perf_counter_ns()
            stack.pop()
        counters = self.layers[index].counters
        if counters is not None:
            for key, inc in counters(args, result).items():
                if inc is not None:
                    self.counts[key] = self.counts.get(key, 0) + inc
        return result

    def _wrapper(self, index: int, fn: Callable) -> Callable:
        record = self.record

        def traced(*args, **kwargs):     # on a class, binds like the method it replaces
            return record(index, fn, args, kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        """Wrap every layer; a layer whose name is missing is recorded absent."""
        self.absent = []
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "coupled_do" or n.startswith("coupled_do."))]
        for index, layer in enumerate(self.layers):
            module_name, _, qual = layer.name.partition(".")
            *path, attr = qual.split(".")
            try:
                owner = importlib.import_module(f"coupled_do.{module_name}")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(layer.name)
                continue
            if isinstance(owner, type):
                # the raw attribute, so that a method binds as before; an
                # inherited one is shadowed on the class and removed again
                original = owner.__dict__.get(attr)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(index, getattr(owner, attr)))
                continue
            wrapped = self._wrapper(index, original)
            # patch the name wherever a caller looks it up
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, name, original))
                        setattr(module, name, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals, in ns."""
    n = len(start)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    covered = np.zeros(n, dtype=np.int64)
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        kids.sort(key=lambda i: start[i])
        total, lo, hi = 0, None, None
        for i in kids:
            s, e = max(start[i], start[p]), min(end[i], end[p])
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    total += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            total += hi - lo
        covered[p] = total
    return dur - covered


def root_gaps(start, end, parent, self_ns) -> list[int]:
    """For each root span, the sum of self times under it minus its duration."""
    root_of = []
    for i, p in enumerate(parent):
        root_of.append(i if p < 0 else root_of[p])   # parents precede children
    sums: dict[int, int] = {}
    for i, r in enumerate(root_of):
        sums[r] = sums.get(r, 0) + int(self_ns[i])
    return [sums[r] - (end[r] - start[r]) for r in sorted(sums)]


def summarize(tracer: Tracer) -> dict:
    """Per-layer calls, total and self time (s) and single-call durations (us)."""
    self_ns = self_times(tracer.start, tracer.end, tracer.parent)
    dur = np.asarray(tracer.end, dtype=np.int64) - np.asarray(tracer.start, dtype=np.int64)
    layer = np.asarray(tracer.layer, dtype=np.int64)
    out = {}
    for index, spec in enumerate(tracer.layers):
        mine = layer == index
        out[spec.name] = {
            "calls": int(mine.sum()),
            "total_s": float(dur[mine].sum()) * 1e-9,
            "self_s": float(self_ns[mine].sum()) * 1e-9,
            "durations_us": dur[mine] * 1e-3 if spec.per_call else None,
        }
    gaps = root_gaps(tracer.start, tracer.end, tracer.parent, self_ns)
    return {"layers": out, "counts": dict(tracer.counts),
            "max_root_gap_ns": max((abs(g) for g in gaps), default=0)}


def write_spans(path, tracer: Tracer) -> None:
    """One CSV row per span: index, layer, start and end (ns), parent index."""
    with open(path, "w") as fh:
        fh.write("span,layer,start_ns,end_ns,parent\n")
        for i, (index, start, end, parent) in enumerate(
                zip(tracer.layer, tracer.start, tracer.end, tracer.parent)):
            fh.write(f"{i},{tracer.layers[index].name},{start},{end},{parent}\n")
