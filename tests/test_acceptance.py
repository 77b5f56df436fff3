"""Acceptance gate: every release criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py``; a one-line verdict per
criterion is printed in the terminal summary.  The tests are ordered;
later criteria reuse artifacts built by earlier ones through a module
cache so each runtime budget covers its own work.
"""

import time
from dataclasses import replace

import numpy as np

from coupled_do import fileio
from coupled_do.basis import BasisConfig
from coupled_do.learner import LearningConfig, fit_rls, sweep
from coupled_do.oracles import (NEWTON_REFERENCE_THETA, basis_identity_checks,
                                gain_placement_checks, projection_oracle, rls_checks)
from coupled_do.sim import ScenarioConfig, disturbance, generate_training_run, run_scenario

_cache: dict = {}

NEWTON_BASIS = dict(p=2, n=1, x_box=(-10, 10), t_box=(0, 100), normalize=False)


def newton_fit():
    """Benchmark identification (10000 samples, delta=0.01, p=2), cached."""
    if "model" not in _cache:
        data = generate_training_run("quad_drag_drift", n_samples=10000, seed=42)
        model, report = fit_rls(data, BasisConfig(**NEWTON_BASIS), 0.01)
        oracle = projection_oracle(disturbance("quad_drag_drift"), 2, (-10, 10), (0, 100))
        _cache.update(model=model, report=report, oracle=oracle, train=data)
    return _cache["model"], _cache["report"], _cache["oracle"]


def run_mode(mode, seed, sigma_v2, model=None):
    return run_scenario(ScenarioConfig(
        mode=mode, model=model, sigma_v2=sigma_v2, dt=1e-3, duration=20.0,
        poles=(-0.4, -0.4, -0.4), ndo_gain=0.4, seed=seed))


def suite_verdict(acceptance, name, suite, budget_s, **kwargs):
    """Run an oracle suite; the criterion holds when every check passes
    within the time budget."""
    start = time.perf_counter()
    checks = suite(**kwargs)
    elapsed = time.perf_counter() - start
    acceptance(name, all(c.passed for c in checks) and elapsed < budget_s,
               "; ".join(c.line() for c in checks) + f"; {elapsed:.1f} s")


def test_criterion_1_basis_identities(acceptance):
    suite_verdict(acceptance, "criterion 1: basis identities",
                  basis_identity_checks, 5.0, seed=0)


def test_criterion_2_rls_correctness(acceptance):
    suite_verdict(acceptance, "criterion 2: regularized least squares",
                  rls_checks, 5.0, seed=1)


def test_criterion_3_benchmark_identification(acceptance):
    start = time.perf_counter()
    model, report, oracle = newton_fit()
    sq_err = float(np.sum((model.theta[0] - oracle) ** 2))
    ref_gap = np.abs(oracle - NEWTON_REFERENCE_THETA)
    elapsed = time.perf_counter() - start
    acceptance(
        "criterion 3: benchmark coefficient identification",
        sq_err < 1e-4 and elapsed < 10.0,
        f"||theta_oracle - theta_hat||^2 = {sq_err:.3e} (reported reference "
        f"differs from the projection in entries {np.flatnonzero(ref_gap > 1e-6).tolist()}, "
        f"not asserted), {elapsed:.1f} s")


def test_criterion_4_gain_placement(acceptance):
    suite_verdict(acceptance, "criterion 4: observer gain placement",
                  gain_placement_checks, 2.0, seed=2, draws=100)


def test_criterion_5_hodo_convergence(acceptance):
    start = time.perf_counter()
    model, _, _ = newton_fit()
    hodo = run_mode("hodo", seed=0, sigma_v2=0.0, model=model)
    ndo = run_mode("ndo", seed=0, sigma_v2=0.0)
    _cache["crit5_runs"] = (hodo, ndo)

    slope = hodo.estimation_decay_slope(2.0, 10.0)
    rng_d = hodo.disturbance_range()
    tail_hodo = hodo.estimation_tail_mae(10.0)
    tail_ndo = ndo.estimation_tail_mae(10.0)
    ratio = tail_ndo / tail_hodo
    elapsed = time.perf_counter() - start
    acceptance(
        "criterion 5: higher-order observer convergence",
        slope <= -0.3 and tail_hodo < 0.02 * rng_d and ratio >= 5.0 and elapsed < 30.0,
        f"decay slope {slope:.2f} (<= -0.3), tail error {100 * tail_hodo / rng_d:.2f}% "
        f"of range (< 2%), baseline lag ratio {ratio:.0f}x (>= 5x), {elapsed:.1f} s")


def test_criterion_6_closed_loop_ordering(acceptance):
    start = time.perf_counter()
    model, _, _ = newton_fit()
    ordered = True
    details = []
    _cache["crit6_runs"] = {}
    for seed in range(5):
        runs = {mode: run_mode(mode, seed=seed, sigma_v2=0.1,
                               model=model if mode == "hodo" else None)
                for mode in ("none", "ndo", "hodo")}
        _cache["crit6_runs"][seed] = runs
        maes = {m: r.tracking_mae() for m, r in runs.items()}
        ordered &= maes["hodo"] < maes["ndo"] < maes["none"]
        details.append(f"s{seed}: {maes['hodo']:.2f}<{maes['ndo']:.2f}<{maes['none']:.2f}")
    elapsed = time.perf_counter() - start
    acceptance(
        "criterion 6: closed-loop tracking ordering",
        ordered and elapsed < 60.0,
        "tracking MAE hodo<ndo<none on 5 seeds (" + "; ".join(details) + f"), {elapsed:.1f} s")


def test_criterion_7_sweep_shape(acceptance):
    start = time.perf_counter()
    functions = ("sine_product", "cubic_drift", "sine_cubic")
    p_values = list(range(1, 7))
    noise = (0.01, 0.05, 0.1)
    interior = True
    details = []
    for name in functions:
        base = LearningConfig(functions=(name,), n_samples=10000,
                              delta=0.01, normalize=True, seed=7)
        cells = sweep(replace(base, p_values=p_values, noise_variances=noise))
        for sigma2 in noise:
            maes = [c.test_mae for c in cells if c.noise_variance == sigma2]
            arg = p_values[int(np.argmin(maes))]
            interior &= p_values[0] < arg < p_values[-1]
            details.append(f"{name}@{sigma2}:p{arg}")

    base = LearningConfig(functions=("cubic_drift",), n_samples=10000,
                          delta=1e-9, normalize=True, seed=7)
    inspan = [c.test_mae
              for c in sweep(replace(base, p_values=[3, 4, 5, 6], noise_variances=[0.0]))]
    base_ridge = LearningConfig(functions=("cubic_drift",), n_samples=10000,
                                delta=0.01, normalize=True, seed=7)
    ridge_floor = sweep(replace(base_ridge, p_values=[3],
                                noise_variances=[0.0]))[0].test_mae
    inspan_ok = max(inspan) < 1e-6

    elapsed = time.perf_counter() - start
    acceptance(
        "criterion 7: learning sweep shape",
        interior and inspan_ok and elapsed < 120.0,
        f"interior minima [{' '.join(details)}], in-span MAE {max(inspan):.1e} "
        f"(< 1e-6 at ridge 1e-9; ridge 0.01 floors it at {ridge_floor:.1e}), {elapsed:.1f} s")


def test_criterion_8_determinism(acceptance, tmp_path):
    # repeated runs of the criterion 3, 5, and 6 artifacts with the same
    # seeds must serialize to byte-identical CSVs
    model, report, _ = newton_fit()

    def fit_bytes(tag):
        data = generate_training_run("quad_drag_drift", n_samples=10000, seed=42)
        _, rep = fit_rls(data, BasisConfig(**NEWTON_BASIS), 0.01)
        path = tmp_path / f"fit_{tag}.csv"
        fileio.append_csv_row(path, fileio.REPORT_CSV_COLUMNS,
                              fileio.report_row("quad_drag_drift", 2, 0.0, 0.01, 42,
                                                len(data), len(data), rep))
        return path.read_bytes()

    ok = fit_bytes("a") == fit_bytes("b")

    hodo_again = run_mode("hodo", seed=0, sigma_v2=0.0, model=model)
    pa, pb = tmp_path / "c5_a.csv", tmp_path / "c5_b.csv"
    fileio.save_scenario(pa, _cache["crit5_runs"][0])
    fileio.save_scenario(pb, hodo_again)
    ok &= pa.read_bytes() == pb.read_bytes()

    checked = 0
    for seed, runs in _cache["crit6_runs"].items():
        for mode, first in runs.items():
            again = run_mode(mode, seed=seed, sigma_v2=0.1,
                             model=model if mode == "hodo" else None)
            pa, pb = tmp_path / f"c6_{mode}{seed}_a.csv", tmp_path / f"c6_{mode}{seed}_b.csv"
            fileio.save_scenario(pa, first)
            fileio.save_scenario(pb, again)
            ok &= pa.read_bytes() == pb.read_bytes()
            checked += 1

    acceptance(
        "criterion 8: bit-identical reruns",
        ok,
        f"fit report, convergence series, and {checked} closed-loop series "
        f"reproduce byte-for-byte")
