"""Seeded inputs, command sequences and output checks of the benchmark workloads.

Inputs are written with numpy and csv only, so the program under test
receives nothing but files.  One iteration of a workload runs its CLI
commands in a fresh directory (``metrics.csv`` and ``fit_reports.csv``
append and ``sweep`` resumes, so a reused directory would measure a
different workload), then checks what they wrote.

An operation is one CLI command or one sweep cell.  It fails on a
non-zero exit code, an exception, or a failed output check.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import math
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import hostspeed

# quad_drag_drift, the closed-loop disturbance of the program, restated here
# so that the generated trajectory does not depend on the code under test.
V_BOX = (-10.0, 10.0)
T_BOX = (0.0, 100.0)
MASS = 1.0


def quad_drag_drift(v, t):
    return -v**2 + 50.0 - 10.0 * t - 0.5 * t**2


SCENARIO_STEPS = 20_000          # 20 s at dt = 1e-3
TRAJECTORY_ROWS = 100_000        # 100 s at dt = 1e-3, the whole t box
TRAJECTORY_DT = 1e-3
TRAJECTORY_PEAK = 7.0            # |v| peak, inside the +-10 state box
SWEEP_FUNCTIONS = ("sine_product", "cubic_drift", "sine_cubic")
SWEEP_P = (1, 2, 3, 4, 5, 6)
SWEEP_NOISE = (0.0, 0.01, 0.05, 0.1)
SWEEP_CELLS = len(SWEEP_FUNCTIONS) * len(SWEEP_P) * len(SWEEP_NOISE)

HODO_TAIL_SHARE = 0.02           # acceptance criterion 5: tail MAE < 2 % of the range
# Squared coefficient error of the trajectory fit against the projection
# oracle: 1.0e-8 to 3.6e-8 on the seed commit over ten seeds, so an error ten
# times the largest means the target recovery or the fit went wrong.
THETA_ERROR_BOUND = 3.6e-7


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


# --- inputs --------------------------------------------------------------------

def _write_ini(path: Path, sections: dict) -> None:
    lines = []
    for name, fields in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in fields.items()]
        lines.append("")
    path.write_text("\n".join(lines))


def _scenario(seed: int) -> dict:
    return {"sigma_v2": 0.1, "dt": 0.001, "duration": 20, "seed": seed, "mass": MASS}


def write_trajectory(path: Path, seed: int) -> None:
    """Point-mass trajectory (t, x_1, u_1) without targets, by inverse dynamics.

    v(t) is a seeded sum of four sinusoids scaled to peak at +-7, and
    u = m dv/dt - delta(v, t), so the disturbance behind the file is known
    exactly.  The seed moves frequencies, phases and amplitudes, never the
    size or span of the data.
    """
    rng = np.random.default_rng([seed, 0x7261])
    omega = rng.uniform(0.2, 1.5, 4)
    phase = rng.uniform(0.0, 2.0 * math.pi, 4)
    amp = rng.uniform(0.5, 1.0, 4)
    t = np.arange(TRAJECTORY_ROWS) * TRAJECTORY_DT
    arg = np.outer(t, omega) + phase
    v = np.sin(arg) @ amp
    scale = TRAJECTORY_PEAK / np.abs(v).max()
    v *= scale
    v_dot = scale * (np.cos(arg) @ (amp * omega))
    u = MASS * v_dot - quad_drag_drift(v, t)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x_1", "u_1"])
        writer.writerows(zip(t.tolist(), v.tolist(), u.tolist()))


def write_inputs(name: str, seed: int, in_dir: Path) -> Path:
    """Write the inputs of one workload into ``in_dir``; returns the config path.

    The same seed gives byte-identical files.  Outputs go to the run
    directory, a sibling of ``in_dir``.
    """
    in_dir.mkdir(parents=True, exist_ok=True)
    config = in_dir / "config.ini"
    if name == "learn_then_hodo":
        write_trajectory(in_dir / "trajectory.csv", seed)
        # p = 2 represents quad_drag_drift exactly
        _write_ini(config, {
            "basis": {"p": 2, "normalize": "false"},
            "learning": {"function": "quad_drag_drift", "seed": seed,
                         "window": 9, "fit_order": 3},
            "scenario": _scenario(seed),
            "io": {"out_dir": ".", "model_file": "model.txt",
                   "dataset_file": f"../{in_dir.name}/trajectory.csv"},
        })
    elif name == "sweep_then_baselines":
        _write_ini(config, {
            "learning": {"n_samples": 10000, "seed": seed},
            "sweep": {"functions": ", ".join(SWEEP_FUNCTIONS),
                      "p_values": ", ".join(map(str, SWEEP_P)),
                      "noise_variances": ", ".join(map(str, SWEEP_NOISE))},
            "scenario": _scenario(seed),
            "io": {"out_dir": "."},
        })
    else:
        raise KeyError(name)
    return config


# --- output checks ----------------------------------------------------------------

def read_csv_rows(path: Path) -> list[dict]:
    if not path.exists():
        raise CheckFailed(f"{path.name} was not written")
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


SERIES_COLUMNS = ["t", "eta", "eta_d", "v", "u", "delta_true", "delta_hat", "mode"]


def load_series(path: Path) -> dict:
    """Numeric columns of a scenario CSV; checks the header, row count and finiteness.

    Parsed with numpy's reader, so the check adds little to the peak memory
    that the benchmark reports.
    """
    if not path.exists():
        raise CheckFailed(f"{path.name} was not written")
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if header != SERIES_COLUMNS:
        raise CheckFailed(f"{path.name}: columns {header}, expected {SERIES_COLUMNS}")
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(7), ndmin=2)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: malformed ({exc})") from exc
    if data.shape[0] != SCENARIO_STEPS:
        raise CheckFailed(f"{path.name}: {data.shape[0]} rows, expected {SCENARIO_STEPS}")
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path.name}: non-finite values")
    return dict(zip(SERIES_COLUMNS, data.T))


def check_hodo_tail(series: dict) -> float:
    """Criterion 5's gate on one HODO series; returns the tail MAE (t >= 10 s)."""
    tail = series["t"] >= 10.0
    err = float(np.mean(np.abs(series["delta_true"][tail] - series["delta_hat"][tail])))
    span = float(series["delta_true"].max() - series["delta_true"].min())
    if not err < HODO_TAIL_SHARE * span:
        raise CheckFailed(f"HODO tail MAE {err:.4g} is not under "
                          f"{HODO_TAIL_SHARE:.0%} of the disturbance range {span:.4g}")
    return err


def metrics_by_mode(path: Path, modes: tuple) -> dict:
    rows = {r.get("mode"): r for r in read_csv_rows(path)}
    if sorted(rows) != sorted(modes):
        raise CheckFailed(f"metrics.csv has modes {sorted(rows)}, expected {sorted(modes)}")
    try:
        return {m: {k: float(rows[m][k]) for k in ("tracking_mae", "estimation_tail_mae")}
                for m in modes}
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"metrics.csv malformed ({exc!r})") from exc


def check_sweep_rows(rows: list[dict]) -> tuple[int, list[float]]:
    """Returns (failed cells, test MAEs of good cells) for a sweep CSV.

    A cell fails when it has no row with status ``ok`` and a finite test
    MAE; every row beyond the grid's size counts as one more failure.
    """
    expected = {(f, p, s2) for f in SWEEP_FUNCTIONS for p in SWEEP_P for s2 in SWEEP_NOISE}
    good = {}
    for r in rows:
        try:
            key = (r["function"], int(r["p"]), float(r["noise_variance"]))
            mae = float(r["test_mae"]) if r["status"] == "ok" else math.nan
        except (KeyError, TypeError, ValueError):
            continue
        if key in expected and math.isfinite(mae):
            good[key] = mae
    failed = len(expected) - len(good) + max(0, len(rows) - len(expected))
    return failed, list(good.values())


# --- iterations -----------------------------------------------------------------

@dataclass
class Iteration:
    """Outcome of one iteration: command times, operations and accuracy."""

    wall_s: float = 0.0           # wall time of the commands, back to back
    norm_s: float = 0.0           # the same, normalized for host speed
    speed: float = 1.0            # mean host speed meanwhile, 1 = the probe's fast state
    command_s: dict = field(default_factory=dict)   # command -> normalized seconds
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)    # name -> value

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        self.errors.append(what)


@dataclass(frozen=True)
class Command:
    name: str                     # names it in reports, e.g. "simulate none,ndo"
    argv: Callable                # config path -> argv of coupled_do.cli.main
    check: Callable               # (iteration dir, exit code, Iteration) -> None
    units: int                    # work units of one call
    unit_name: str                # what they count, as in "<unit_name>_per_s"


def _run_commands(main: Callable, commands: list, config: Path, log_path: Path,
                  it: Iteration, sampler: hostspeed.Sampler) -> list:
    """Run CLI commands back to back; returns their exit codes (None = raised)."""
    codes = []
    with open(log_path, "w") as log, contextlib.redirect_stdout(log), \
            contextlib.redirect_stderr(log):
        first = mark = sampler.mark()
        start = began = time.perf_counter()
        for command in commands:
            try:
                codes.append(main(command.argv(config)))
            except Exception:   # a crashing command is a failed operation
                traceback.print_exc(file=log)
                codes.append(None)
            now = time.perf_counter()
            it.command_s[command.name] = sampler.normalized_s(now - began, mark)
            began, mark = now, sampler.mark()
        it.wall_s = time.perf_counter() - start
        it.norm_s = sampler.normalized_s(it.wall_s, first)
        it.speed = sampler.speed(first)
    it.attempted += len(commands)
    return codes


def _exited_ok(name: str, code, it: Iteration) -> bool:
    if code != 0:
        it.fail(f"{name} exited with {code}")
    return code == 0


def _check_simulate(modes: tuple, observer: str):
    name = f"simulate {','.join(modes)}"

    def check(out: Path, code, it: Iteration) -> None:
        if not _exited_ok(name, code, it):
            return
        try:
            series = {m: load_series(out / f"scenario_{m}.csv") for m in modes}
            metrics = metrics_by_mode(out / "metrics.csv", modes)
            if observer == "hodo":
                check_hodo_tail(series["hodo"])
            else:
                # criterion 6's ordering: compensation beats none
                if not metrics["ndo"]["tracking_mae"] < metrics["none"]["tracking_mae"]:
                    raise CheckFailed("tracking MAE of ndo is not below that of none")
        except CheckFailed as exc:
            it.fail(f"{name}: {exc}")
            return
        it.accuracy["tracking_mae"] = metrics[observer]["tracking_mae"]
        it.accuracy["estimation_tail_mae"] = metrics[observer]["estimation_tail_mae"]
    return check


def check_learn_trajectory(out: Path, code, it: Iteration) -> None:
    if not _exited_ok("learn", code, it):
        return
    from coupled_do import fileio, oracles
    try:
        model = fileio.load_model(out / "model.txt")
    except Exception as exc:     # any failure to load is a failed output
        it.fail(f"learn: model does not load ({exc!r})")
        return
    reports = read_csv_rows(out / "fit_reports.csv")
    truth = oracles.projection_oracle(quad_drag_drift, 2, V_BOX, T_BOX)
    theta = np.asarray(model.theta, dtype=float)
    err = float(np.sum((truth - theta) ** 2)) if theta.shape == (1, truth.size) else math.inf
    if not err < THETA_ERROR_BOUND:
        it.fail(f"learn: squared coefficient error {err:.3g} >= {THETA_ERROR_BOUND:.3g}")
    elif len(reports) != 1:
        it.fail(f"learn: fit_reports.csv has {len(reports)} rows, expected 1")
    else:
        it.accuracy["theta_error"] = err
        it.accuracy["fit_test_mae"] = float(reports[0]["test_mae"])


def check_sweep(out: Path, code, it: Iteration) -> None:
    # the command counted one operation; every cell is one more
    it.attempted += SWEEP_CELLS
    rows = read_csv_rows(out / "sweep.csv") if (out / "sweep.csv").exists() else []
    failed, maes = check_sweep_rows(rows)
    if failed:
        it.fail(f"sweep: {failed} of {SWEEP_CELLS} cells failed or are missing", failed)
    _exited_ok("sweep", code, it)
    if maes:
        # the mean is dominated by the bias of low orders, so it moves little with the seed
        it.accuracy["sweep_mean_test_mae"] = statistics.fmean(maes)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple               # Commands, run in this order in one directory
    estimate: str                 # accuracy key reported as estimate_mae


LEARN = Command("learn", lambda cfg: ["learn", "--config", str(cfg)],
                check_learn_trajectory, TRAJECTORY_ROWS, "samples")
SIMULATE_HODO = Command("simulate hodo",
                        lambda cfg: ["simulate", "--config", str(cfg), "--modes", "hodo"],
                        _check_simulate(("hodo",), "hodo"), SCENARIO_STEPS, "sim_steps")
SWEEP = Command("sweep", lambda cfg: ["sweep", "--config", str(cfg)],
                check_sweep, SWEEP_CELLS, "cells")
SIMULATE_BASELINES = Command("simulate none,ndo",
                             lambda cfg: ["simulate", "--config", str(cfg),
                                          "--modes", "none,ndo"],
                             _check_simulate(("none", "ndo"), "ndo"),
                             2 * SCENARIO_STEPS, "sim_steps")

# Why each workload was chosen.  Every layer of the pipeline runs in one of
# them, and the per-step loops, whose speed the host-speed probe tracks
# best, do most of the work of both.
WORKLOADS = {
    # The paper's pipeline: learn the model offline from a measured
    # trajectory (CSV parsing, Savitzky-Golay-style target recovery, one
    # large fit), then estimate the disturbance online with HODO, which
    # redesigns its gain and evaluates the output map at each of the 20k
    # control steps; the observer does most of the work.
    "learn_then_hodo": Workload("learn_then_hodo", (LEARN, SIMULATE_HODO),
                                "estimation_tail_mae"),
    # Never calls HODO: a gain-synthesis change must leave it unchanged, while
    # a change to the scenario loop, the plant or the CSV writer must move
    # both workloads.  The sweep's 72 small fits are the many-small-fits
    # regime of fit_rls and design_rows and the sweep's thread pool.
    "sweep_then_baselines": Workload("sweep_then_baselines", (SWEEP, SIMULATE_BASELINES),
                                     "estimation_tail_mae"),
}


def run_iteration(workload: Workload, main: Callable, config: Path, out: Path,
                  sampler: Optional[hostspeed.Sampler] = None) -> Iteration:
    """Run one iteration in the fresh directory ``out`` and check its outputs.

    ``out`` must be a sibling of the directory holding ``config``.  Times are
    normalized by the samples ``sampler`` takes meanwhile; without a running
    sampler they are the raw wall times.
    """
    sampler = sampler or hostspeed.Sampler(probe=None, nominal_ns=1)
    out.mkdir(parents=True)
    it = Iteration()
    gc.collect()       # garbage of earlier iterations is not collected on this one's clock
    cwd = os.getcwd()
    os.chdir(out)      # the configs name their outputs relative to the run directory
    try:
        codes = _run_commands(main, workload.commands, config, out / "cli.log", it, sampler)
    finally:
        os.chdir(cwd)
    for command, code in zip(workload.commands, codes):
        try:
            command.check(out, code, it)
        except CheckFailed as exc:
            it.fail(str(exc))
    return it
