"""Command-line entry point.

Subcommands
-----------
learn     identify a separated model from a dataset file or a synthesis
          spec, write the model file, append a row to fit_reports.csv,
          print the train and test errors; the model file's
          ``dataset_digest`` is the hash of the whole fitted dataset,
          targets included, taken before the train/test split
sweep     grid of fits over function, polynomial order and noise
          variance, one row per cell in sweep.csv, resumable: one
          ``learner.sweep`` call computes the cells that sweep.csv lacks
          for the seed, and functions that share a sampling box share
          each noise level's draw and each order's factored design
simulate  closed-loop tracking runs for the requested compensation
          modes, per-step CSVs plus a row per mode in metrics.csv; one
          mode's results are alive at a time
verify    run the independent oracle suites, which are also acceptance
          criteria 1, 2 and 4 at the same seeds, and report pass/fail;
          ``--level full`` places 1000 observer gains instead of 100

Exit codes: 0 success, 1 ``verify`` with a failed check, 2 configuration
error, 3 data error, 4 numerical failure, 5 stdout could not be written
(closed early, as by ``| head``, or on a full device): the command stops at
that report line with one line on stderr, and the files it wrote before
stay.  Partial successes never exit 0.
Results go to ``io.out_dir`` (or ``--out``), and so does the model file
``model.txt`` unless ``io.model_file`` names another.  ``learn`` adds noise of
variance ``learning.noise_variance`` to synthesized targets only.
A command checks its output paths with its inputs: the output directory,
or its first existing ancestor, must be a directory, and ``learn``'s model
file must go into an existing directory or the output directory.  It checks
the header of each result file it appends to, and makes the output
directory, just before its first write, so a refused command writes
nothing.  The module tops the package's import graph;
only ``verify`` imports :mod:`coupled_do.oracles`.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import fileio
from .errors import ConfigError, DataError, NumericalError
from .learner import check, fit_rls, rng_stream, split_dataset, sweep, targets_from_trajectory
from .sim import generate_training_run, newton_velocity_channel, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupled-do",
        description="Learn separable disturbance structure and estimate it online.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, required=True, help="INI experiment file")
    common.add_argument("--seed", type=int, default=None, help="override the configured seed")
    common.add_argument("--out", type=Path, default=None, help="override io.out_dir")

    sub.add_parser("learn", parents=[common], help="fit a separated model")
    sub.add_parser("sweep", parents=[common], help="order/noise learning sweep")

    simulate = sub.add_parser("simulate", parents=[common], help="closed-loop tracking runs")
    simulate.add_argument("--modes", type=str, default=None,
                          help="comma list overriding scenario.modes")

    verify = sub.add_parser("verify", help="run the oracle suites")
    verify.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


def _paths(typed, override) -> tuple[Path, Path]:
    """The output directory and io.model_file or model.txt in it; ConfigError,
    naming ``--out`` or ``io.out_dir``, unless the output directory or its
    first existing ancestor is a directory."""
    out = Path(override) if override is not None else Path(typed["out_dir"])
    found = next((d for d in (out, *out.parents) if d.exists()), out)
    if not found.is_dir():
        name = "--out" if override is not None else "io.out_dir"
        raise ConfigError(f"{name}: {found} is not a directory")
    return out, Path(typed["model_file"] or out / "model.txt")


def _seed(args, configured: int) -> int:
    return configured if args.seed is None else check("seed", args.seed, "--seed")


def cmd_learn(args) -> int:
    typed = fileio.load_config(args.config)
    cfg = typed["learning"]
    seed = _seed(args, cfg.seed)
    out, model_path = _paths(typed, args.out)
    if model_path.parent != out and not model_path.parent.is_dir():
        raise ConfigError(f"io.model_file: {model_path.parent} is not a directory")
    sigma2 = 0.0 if typed["dataset_file"] else cfg.noise_variance
    results_path = out / "fit_reports.csv"
    # a learn refused for its report file must not have replaced the model file
    fileio.check_csv_header(results_path, fileio.REPORT_CSV_COLUMNS)

    if typed["dataset_file"]:
        data = fileio.load_dataset(typed["dataset_file"])
        if data.delta is None:
            data = targets_from_trajectory(data, *newton_velocity_channel(typed["scenario"].mass),
                                           window=cfg.window, fit_order=cfg.fit_order)
    else:
        data = generate_training_run(cfg.function, cfg.n_samples, seed,
                                     float(np.sqrt(sigma2)), *cfg.boxes(cfg.function))

    digest = fileio.dataset_digest(data)
    train, test = split_dataset(data, cfg.train_fraction, rng_stream(seed, "split"))
    # the split copies its records: dropping the full dataset, and with it the
    # loaded array whose columns it views, leaves the fit only train and test
    del data
    model, report = fit_rls(train, cfg.basis(), cfg.delta, test=test)

    out.mkdir(parents=True, exist_ok=True)
    fileio.save_model(model_path, model, seed=seed, delta=cfg.delta, digest=digest)
    fileio.append_csv_row(results_path, fileio.REPORT_CSV_COLUMNS,
                          fileio.report_row(cfg.function, cfg.p, sigma2, cfg.delta,
                                            seed, len(train), len(test), report))

    _say(f"model written to {model_path}")
    _say(f"train MAE = {report.train_mae:.6e}  test MAE = {report.test_mae:.6e}  "
         f"gram condition = {report.gram_condition:.3e}")
    return 0


def cmd_sweep(args) -> int:
    typed = fileio.load_config(args.config)
    cfg = typed["learning"]
    seed = _seed(args, cfg.seed)
    grid_path = _paths(typed, args.out)[0] / "sweep.csv"
    # only the cells this seed has not written yet are computed
    done = {key[:3] for key in fileio.existing_sweep_keys(grid_path) if key[3] == seed}

    rows = []
    for cell in sweep(dataclasses.replace(cfg, seed=seed), done):
        ok = cell.report is not None
        rows.append([cell.function, cell.p, fileio.fmt(cell.noise_variance), seed,
                     fileio.fmt(cell.report.test_mae) if ok else "",
                     "ok" if ok else f"error: {cell.error}"])
    rows.sort(key=lambda r: (r[0], int(r[1]), float(r[2])))
    grid_path.parent.mkdir(parents=True, exist_ok=True)
    fileio.append_csv_rows(grid_path, fileio.SWEEP_CSV_COLUMNS, rows)
    # a done key outside this grid, or one that matches no cell (a NaN), skips nothing
    grid = len(cfg.functions) * len(cfg.p_values) * len(cfg.noise_variances)
    skipped = " (resume: existing cells skipped)" if len(rows) < grid else ""
    _say(f"sweep grid written to {grid_path}: {len(rows)} new rows{skipped}")
    failed = [r for r in rows if r[5] != "ok"]
    if failed:
        print(f"{len(failed)} cells failed", file=sys.stderr)
        return 4
    return 0


def cmd_simulate(args) -> int:
    typed = fileio.load_config(args.config)
    seed = _seed(args, typed["scenario"].seed)
    out, model_path = _paths(typed, args.out)
    modes = fileio.parse_modes(args.modes, "--modes") if args.modes else typed["modes"]

    model = None
    if "hodo" in modes:
        model = fileio.load_model(model_path)
        if model.config.n != 1:
            raise ConfigError(f"io.model_file: model has n = {model.config.n}, "
                              "the point-mass velocity channel has n = 1")

    metrics_path = out / "metrics.csv"
    # every scenario and the metrics file are checked before the first one runs
    fileio.check_csv_header(metrics_path, fileio.METRICS_CSV_COLUMNS)
    scenarios = [dataclasses.replace(typed["scenario"], mode=mode, model=model, seed=seed)
                 for mode in modes]
    for mode, scenario in zip(modes, scenarios):
        result = run_scenario(scenario)
        out.mkdir(parents=True, exist_ok=True)
        series_path = out / f"scenario_{mode}.csv"
        fileio.save_scenario(series_path, result)
        if result.sigma_hat is not None:
            fileio.save_sigma_series(out / f"scenario_{mode}_sigma.csv", result)
        tracking, estimation = result.tracking_mae(), result.estimation_mae()
        fileio.append_csv_row(metrics_path, fileio.METRICS_CSV_COLUMNS,
                              [mode, seed, fileio.fmt(tracking), fileio.fmt(estimation),
                               fileio.fmt(result.estimation_tail_mae()),
                               fileio.fmt(result.estimation_decay_slope()),
                               result.gain_failures])
        _say(f"{mode}: tracking MAE = {tracking:.4f}  "
             f"estimation MAE = {estimation:.4f}  series -> {series_path}")
        if not result.completed:
            raise NumericalError(f"mode {mode}: plant state non-finite after the step from "
                                 f"t = {result.t[-1]:g}; partial series in {series_path}")
        del result      # freed before the next mode allocates its own series
    _say(f"metrics appended to {metrics_path}")
    return 0


def cmd_verify(args) -> int:
    from . import oracles       # the one command that needs the reference checks
    results, elapsed = oracles.run_suites(level=args.level)
    for res in results:
        _say(res.line())
    failed = [r for r in results if not r.passed]
    _say(f"{len(results) - len(failed)}/{len(results)} checks passed in {elapsed:.1f} s")
    return 1 if failed else 0


class _StdoutFailed(Exception):
    """A line of a command's report could not be written to stdout."""


def _say(text: str) -> None:
    """One report line on stdout, flushed, so that a closed or full stdout
    stops the command at this line instead of at the exit's flush."""
    try:
        print(text, flush=True)
    except OSError as exc:
        raise _StdoutFailed(exc) from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"learn": cmd_learn, "sweep": cmd_sweep,
                "simulate": cmd_simulate, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except _StdoutFailed as exc:
        if sys.stdout is sys.__stdout__:
            # Python flushes stdout again at exit: with the descriptor on devnull
            # that flush cannot fail a second time (the signal module's SIGPIPE note)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: stdout: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
