"""Command-line entry point.

Subcommands
-----------
learn     identify a separated model from a dataset file or a synthesis
          spec, write the model file, append a fit-report row
sweep     grid of fits over polynomial order and noise variance, one
          CSV row per cell, resumable
simulate  closed-loop tracking runs for the requested compensation
          modes, per-step CSV plus a metrics summary
verify    run the independent oracle suites, which are also acceptance
          criteria 1, 2 and 4 at the same seeds, and report pass/fail;
          ``--level full`` places 1000 observer gains instead of 100

Exit codes: 0 success, 1 ``verify`` with a failed check, 2 configuration
error, 3 data error, 4 numerical failure.  Partial successes never exit 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import fileio, oracles
from .basis import BasisConfig
from .errors import ConfigError, DataError, NumericalError
from .learner import (SweepConfig, fit_rls, rng_stream, split_dataset, sweep,
                      targets_from_trajectory)
from .sim import (ScenarioConfig, disturbance, disturbance_box,
                  generate_training_run, newton_velocity_channel, run_scenario)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupled-do",
        description="Learn separable disturbance structure and estimate it online.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, required=True, help="INI experiment file")
    common.add_argument("--seed", type=int, default=None, help="override the configured seed")
    common.add_argument("--out", type=Path, default=None, help="override io.out_dir")

    learn = sub.add_parser("learn", parents=[common], help="fit a separated model")
    learn.add_argument("--noisy", action="store_true",
                       help="corrupt synthesized targets with learning.noise_variance")

    sub.add_parser("sweep", parents=[common], help="order/noise learning sweep")

    simulate = sub.add_parser("simulate", parents=[common], help="closed-loop tracking runs")
    simulate.add_argument("--modes", type=str, default=None,
                          help="comma list overriding scenario.modes")

    verify = sub.add_parser("verify", help="run the oracle suites")
    verify.add_argument("--level", choices=("fast", "full"), default="fast")
    return parser


def _out_dir(typed, override) -> Path:
    out = Path(override) if override is not None else Path(typed["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _seed(args, configured: int) -> int:
    if args.seed is None:
        return configured
    if args.seed < 0:
        raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
    return args.seed


def _boxes(typed, function: str) -> tuple:
    """(x_box, t_box) for a function: each configured basis box where set,
    else the one registered with the disturbance."""
    x_box, t_box = disturbance_box(function)
    return typed["x_box"] or x_box, typed["t_box"] or t_box


def cmd_learn(args) -> int:
    typed = fileio.load_config(args.config)
    seed = _seed(args, typed["seed"])
    out = _out_dir(typed, args.out)
    function = typed["function"]
    sigma2 = typed["noise_variance"] if args.noisy and not typed["dataset_file"] else 0.0

    if typed["dataset_file"]:
        data = fileio.load_dataset(typed["dataset_file"])
        if data.delta is None:
            f_x, f_u = newton_velocity_channel(typed["mass"])
            data = targets_from_trajectory(data, f_x, f_u,
                                           window=typed["window"],
                                           fit_order=typed["fit_order"])
    else:
        data = generate_training_run(function, n_samples=typed["n_samples"],
                                     seed=seed, noise_std=float(np.sqrt(sigma2)))

    train, test = split_dataset(data, typed["train_fraction"], rng_stream(seed, "split"))
    x_box, t_box = _boxes(typed, function)
    basis = BasisConfig(p=typed["p"], n=1, x_box=x_box, t_box=t_box,
                        normalize=typed["normalize"])

    theta_true = None
    if function == "quad_drag_drift" and not basis.normalize:
        theta_true = oracles.projection_oracle(disturbance(function), typed["p"],
                                               *disturbance_box(function))

    model, report = fit_rls(train, basis, typed["ridge_delta"], test=test,
                            theta_true=theta_true)

    model_path = Path(typed["model_file"]) if typed["model_file"] else out / "model.txt"
    fileio.save_model(model_path, model, seed=seed, delta=typed["ridge_delta"],
                      digest=fileio.dataset_digest(data))
    results_path = Path(typed["results_file"]) if typed["results_file"] else out / "fit_reports.csv"
    fileio.append_csv_row(results_path, fileio.REPORT_CSV_COLUMNS,
                          fileio.report_row(function, typed["p"], sigma2, typed["ridge_delta"],
                                            seed, len(train), len(test), report))

    print(f"model written to {model_path}")
    print(f"train MAE = {report.train_mae:.6e}  test MAE = {report.test_mae:.6e}  "
          f"gram condition = {report.gram_condition:.3e}")
    if report.theta_error is not None:
        print(f"squared coefficient error vs projection oracle = {report.theta_error:.6e}")
    return 0


def cmd_sweep(args) -> int:
    typed = fileio.load_config(args.config)
    seed = _seed(args, typed["seed"])
    out = _out_dir(typed, args.out)
    grid_path = Path(typed["results_file"]) if typed["results_file"] else out / "sweep.csv"
    done = fileio.existing_sweep_keys(grid_path)
    # a value repeated in the config is one cell of the grid
    p_values = list(dict.fromkeys(typed["p_values"]))
    noise_variances = list(dict.fromkeys(typed["noise_variances"]))

    rows = []
    for function in typed["sweep_functions"]:
        x_box, t_box = _boxes(typed, function)
        base = SweepConfig(disturbance=disturbance(function), x_box=x_box, t_box=t_box,
                           n_samples=typed["n_samples"],
                           train_fraction=typed["train_fraction"],
                           delta=typed["ridge_delta"],
                           normalize=typed["normalize"],
                           seed=seed)
        # only the orders still missing at a noise level are computed
        for s2 in noise_variances:
            todo = [p for p in p_values if (function, p, float(s2), seed) not in done]
            if not todo:
                continue
            for cell in sweep(base, todo, [s2]):
                ok = cell.report is not None
                rows.append([function, cell.p, fileio.fmt(cell.noise_variance), seed,
                             fileio.fmt(cell.report.test_mae) if ok else "",
                             "ok" if ok else f"error: {cell.error}"])
    rows.sort(key=lambda r: (r[0], int(r[1]), float(r[2])))
    for row in rows:
        fileio.append_csv_row(grid_path, fileio.SWEEP_CSV_COLUMNS, row)
    skipped = " (resume: existing cells skipped)" if any(k[3] == seed for k in done) else ""
    print(f"sweep grid written to {grid_path}: {len(rows)} new rows{skipped}")
    failed = [r for r in rows if r[5] != "ok"]
    if failed:
        print(f"{len(failed)} cells failed", file=sys.stderr)
        return 4
    return 0


def cmd_simulate(args) -> int:
    typed = fileio.load_config(args.config)
    seed = _seed(args, typed["scenario_seed"])
    out = _out_dir(typed, args.out)
    modes = fileio.parse_modes(args.modes, "--modes") if args.modes else typed["modes"]

    model = None
    if "hodo" in modes:
        if not typed["model_file"]:
            raise ConfigError("io.model_file: required when simulating mode 'hodo'")
        model = fileio.load_model(typed["model_file"])
        if model.config.n != 1:
            raise ConfigError(f"io.model_file: model has n = {model.config.n}, "
                              "the point-mass velocity channel has n = 1")
        if len(typed["poles"]) != model.config.s2:
            raise ConfigError(f"observer.poles: {len(typed['poles'])} given, model has s2 = {model.config.s2}")

    metrics_path = out / "metrics.csv"
    for mode in modes:
        scenario = ScenarioConfig(
            mode=mode, model=model, k_eta=typed["k_eta"], k_v=typed["k_v"],
            mass=typed["mass"], eta0=typed["eta0"], v0=typed["v0"],
            sigma_v2=typed["sigma_v2"], dt=typed["dt"], duration=typed["duration"],
            poles=typed["poles"], ndo_gain=typed["ndo_gain"],
            seed=seed, log_sigma=typed["log_sigma"])
        result = run_scenario(scenario)
        series_path = out / f"scenario_{mode}.csv"
        fileio.save_scenario(series_path, result)
        if result.sigma_hat is not None:
            fileio.save_sigma_series(out / f"scenario_{mode}_sigma.csv", result)
        fileio.append_csv_row(metrics_path, fileio.METRICS_CSV_COLUMNS,
                              [mode, seed, fileio.fmt(result.tracking_mae()),
                               fileio.fmt(result.estimation_mae()),
                               fileio.fmt(result.estimation_tail_mae()),
                               fileio.fmt(result.estimation_decay_slope()),
                               result.gain_failures])
        print(f"{mode}: tracking MAE = {result.tracking_mae():.4f}  "
              f"estimation MAE = {result.estimation_mae():.4f}  series -> {series_path}")
    print(f"metrics appended to {metrics_path}")
    return 0


def cmd_verify(args) -> int:
    results, elapsed = oracles.run_suites(level=args.level)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed in {elapsed:.1f} s")
    return 1 if failed else 0


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


if __name__ == "__main__":
    sys.exit(main())
