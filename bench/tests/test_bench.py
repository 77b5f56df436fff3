"""Tests of the benchmark itself: span and host-speed arithmetic, inputs and output checks."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from coupled_do import cli, fileio, oracles  # noqa: E402
from coupled_do.basis import BasisConfig  # noqa: E402
from coupled_do.learner import SeparatedModel  # noqa: E402
from coupled_do.sim import generate_training_run  # noqa: E402


# --- self-time arithmetic ---------------------------------------------------

def test_self_times_subtract_children_and_sum_to_root():
    # root [0,100] > a [10,40] > a1 [20,30];  root > b [50,90]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 90]
    parent = [-1, 0, 1, 0]
    self_ns = spans.self_times(start, end, parent)
    assert self_ns.tolist() == [30, 20, 10, 40]
    assert spans.root_gaps(start, end, parent, self_ns) == [0]


def test_self_times_cover_overlapping_children_once():
    # two children overlapping on [60,70] cover [55,80] of the parent
    start, end, parent = [0, 55, 60], [100, 70, 80], [-1, 0, 0]
    self_ns = spans.self_times(start, end, parent)
    assert self_ns.tolist() == [75, 15, 20]
    # concurrent children break the identity by their overlap
    assert spans.root_gaps(start, end, parent, self_ns) == [10]


def test_separate_roots_are_summed_separately():
    start, end, parent = [0, 5, 200], [50, 15, 260], [-1, 0, -1]
    self_ns = spans.self_times(start, end, parent)
    assert self_ns.tolist() == [40, 10, 60]
    assert spans.root_gaps(start, end, parent, self_ns) == [0, 0]


def _design_rows_attr():
    return BasisConfig.__dict__["design_rows"]


def test_tracer_wraps_names_where_callers_look_them_up():
    original_fit = cli.fit_rls
    original_rows = _design_rows_attr()
    layers = (spans.Layer("learner.fit_rls", "", per_call=True),
              spans.Layer("basis.BasisConfig.design_rows", ""),
              spans.Layer("observer.NoSuchLayer.step", ""))
    tracer = spans.Tracer(layers)
    tracer.install()
    try:
        data = generate_training_run("cubic_drift", n_samples=200)
        basis = BasisConfig(p=2, n=1, x_box=(-2.0, 2.0), t_box=(0.0, 4.0))
        cli.fit_rls(data, basis, 0.01)          # the name as cmd_learn looks it up
    finally:
        tracer.uninstall()
    assert cli.fit_rls is original_fit
    assert _design_rows_attr() is original_rows
    assert tracer.absent == ["observer.NoSuchLayer.step"]
    summary = spans.summarize(tracer)
    fit, rows = summary["layers"]["learner.fit_rls"], summary["layers"]["basis.BasisConfig.design_rows"]
    assert fit["calls"] == 1 and rows["calls"] >= 1
    assert rows["self_s"] == rows["total_s"]
    assert fit["self_s"] == pytest.approx(fit["total_s"] - rows["total_s"], abs=1e-9)
    assert summary["max_root_gap_ns"] == 0
    assert len(fit["durations_us"]) == 1


def test_tracer_shadows_an_inherited_method_and_removes_it_again(monkeypatch):
    import types

    class Base:
        def step(self, x):
            return x + 1

    class Child(Base):
        pass

    module = types.ModuleType("coupled_do.fake_layers")
    module.Child = Child
    monkeypatch.setitem(sys.modules, "coupled_do.fake_layers", module)
    tracer = spans.Tracer((spans.Layer("fake_layers.Child.step", ""),))
    tracer.install()
    try:
        assert Child().step(1) == 2
    finally:
        tracer.uninstall()
    assert "step" not in Child.__dict__ and Child().step(2) == 3
    assert spans.summarize(tracer)["layers"]["fake_layers.Child.step"]["calls"] == 1


# --- host speed ---------------------------------------------------------------

def _sampler(durations):
    sampler = hostspeed.Sampler(hostspeed.python_probe, nominal_ns=100)
    sampler.durations = list(durations)
    return sampler


def test_normalized_time_scales_the_busy_time_by_the_mean_speed():
    # half the samples at nominal speed, half at half speed: mean speed 0.75
    sampler = _sampler([100, 200, 100, 200])
    assert sampler.speed() == pytest.approx(0.75)
    # 600 ns of the 10 s were spent in probes
    assert sampler.normalized_s(10.0) == pytest.approx((10.0 - 600e-9) * 0.75)
    # an interval is delimited by marks
    assert sampler.speed(since=1) == pytest.approx((0.5 + 1.0 + 0.5) / 3)
    # without samples there is nothing to correct
    assert sampler.normalized_s(2.0, since=4) == 2.0


def test_sampler_probes_in_the_background_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(hostspeed.python_probe, hostspeed.PYTHON_NOMINAL_NS,
                                period_s=0.005)
    with sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    count = len(sampler.durations)
    assert count >= 10 and all(d > 0 for d in sampler.durations)
    time.sleep(0.02)
    assert len(sampler.durations) == count
    assert signal.getsignal(signal.SIGALRM) is before


# --- inputs -----------------------------------------------------------------

def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.write_inputs(name, 5, tmp_path / name / "a" / "inputs").parent
        b = workloads.write_inputs(name, 5, tmp_path / name / "b" / "inputs").parent
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), (name, rel)


def test_trajectory_depends_on_seed_and_obeys_inverse_dynamics(tmp_path):
    workloads.write_trajectory(tmp_path / "a.csv", 1)
    workloads.write_trajectory(tmp_path / "b.csv", 2)
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()
    t, v, u = np.loadtxt(tmp_path / "a.csv", delimiter=",", skiprows=1, unpack=True)
    assert len(t) == workloads.TRAJECTORY_ROWS
    assert np.abs(v).max() == pytest.approx(workloads.TRAJECTORY_PEAK)
    # u = m dv/dt - delta(v, t), checked with a central difference
    v_dot = (v[2:] - v[:-2]) / (t[2:] - t[:-2])
    delta = workloads.MASS * v_dot - u[1:-1]
    assert np.abs(delta - workloads.quad_drag_drift(v[1:-1], t[1:-1])).max() < 1e-3


# --- output checks ------------------------------------------------------------

def _series(delta_hat_scale):
    t = np.arange(workloads.SCENARIO_STEPS) * 1e-3
    v = np.sin(0.5 * t)
    delta = workloads.quad_drag_drift(v, t)
    return {"t": t, "delta_true": delta, "delta_hat": delta_hat_scale * delta}


def test_hodo_tail_check_rejects_a_zero_estimate():
    assert workloads.check_hodo_tail(_series(1.0)) == 0.0
    with pytest.raises(workloads.CheckFailed):
        workloads.check_hodo_tail(_series(0.0))


def test_series_check_rejects_short_or_non_finite_series(tmp_path):
    rows = np.zeros((workloads.SCENARIO_STEPS, 7))
    path = tmp_path / "scenario_hodo.csv"

    def write(arr):
        with open(path, "w") as fh:
            fh.write(",".join(workloads.SERIES_COLUMNS) + "\n")
            for row in arr:
                fh.write(",".join(map(repr, row.tolist())) + ",hodo\n")

    write(rows)
    assert set(workloads.load_series(path)) == set(workloads.SERIES_COLUMNS[:-1])
    write(rows[:-1])
    with pytest.raises(workloads.CheckFailed, match="rows"):
        workloads.load_series(path)
    rows[7, 6] = np.inf
    write(rows)
    with pytest.raises(workloads.CheckFailed, match="non-finite"):
        workloads.load_series(path)


def test_zeroed_model_fails_the_closed_loop_iteration(tmp_path):
    def zeroing_main(argv):
        """simulate sees a zeroed model; the learned one is restored for learn's check."""
        if argv[0] != "simulate":
            return cli.main(argv)
        model = fileio.load_model("model.txt")
        fileio.save_model("model.txt", SeparatedModel(np.zeros_like(model.theta),
                                                      model.config))
        try:
            return cli.main(argv)
        finally:
            fileio.save_model("model.txt", model)

    config = workloads.write_inputs("learn_then_hodo", 0, tmp_path / "inputs")
    it = workloads.run_iteration(workloads.WORKLOADS["learn_then_hodo"], zeroing_main,
                                 config, tmp_path / "it")
    assert it.attempted == 2 and it.failed == 1
    assert it.errors[0].startswith("simulate hodo")
    assert "tracking_mae" not in it.accuracy and "fit_test_mae" in it.accuracy


def _write_sweep(path, status_of):
    rows = [[f, p, s2, 0, "0.5" if status_of(f, p, s2) == "ok" else "", status_of(f, p, s2)]
            for f in workloads.SWEEP_FUNCTIONS for p in workloads.SWEEP_P
            for s2 in workloads.SWEEP_NOISE]
    for row in rows:
        fileio.append_csv_row(path, fileio.SWEEP_CSV_COLUMNS, row)


def test_sweep_error_row_counts_as_a_failed_operation(tmp_path):
    good, bad = tmp_path / "good", tmp_path / "bad"
    good.mkdir()
    bad.mkdir()
    _write_sweep(good / "sweep.csv", lambda f, p, s2: "ok")
    _write_sweep(bad / "sweep.csv",
                 lambda f, p, s2: "error: LinAlgError" if (p, s2) == (6, 0.1) else "ok")
    ok_it, bad_it = workloads.Iteration(attempted=1), workloads.Iteration(attempted=1)
    workloads.check_sweep(good, 0, ok_it)
    workloads.check_sweep(bad, 0, bad_it)
    assert (ok_it.attempted, ok_it.failed) == (1 + workloads.SWEEP_CELLS, 0)
    assert (bad_it.attempted, bad_it.failed) == (1 + workloads.SWEEP_CELLS, 3)
    # a missing cell fails as well
    rows = workloads.read_csv_rows(good / "sweep.csv")
    assert workloads.check_sweep_rows(rows[1:])[0] == 1


def test_trajectory_model_check_uses_the_projection_oracle(tmp_path):
    truth = oracles.projection_oracle(workloads.quad_drag_drift, 2,
                                      workloads.V_BOX, workloads.T_BOX)
    basis = BasisConfig(p=2, n=1, x_box=workloads.V_BOX, t_box=workloads.T_BOX)
    for offset, failed in ((0.0, 0), (1e-3, 1)):
        out = tmp_path / str(offset)
        out.mkdir()
        fileio.save_model(out / "model.txt", SeparatedModel(truth[None, :] + offset, basis))
        fileio.append_csv_row(out / "fit_reports.csv", ["test_mae"], ["1e-5"])
        it = workloads.Iteration(attempted=1)
        workloads.check_learn_trajectory(out, 0, it)
        assert it.failed == failed


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep_then_baselines",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
