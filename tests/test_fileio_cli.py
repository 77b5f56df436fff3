"""File formats, configuration handling, and the command-line surface."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from coupled_do import cli, fileio, learner, oracles
from coupled_do.basis import BasisConfig
from coupled_do.errors import ConfigError, DataError
from coupled_do.learner import (LearningConfig, SeparatedModel, TrajectoryDataset, fit_rls,
                                split_dataset, synthesize_dataset, targets_from_trajectory)
from coupled_do.sim import (ScenarioConfig, ScenarioResult, disturbance,
                            generate_training_run, newton_velocity_channel, run_scenario)

BASE_CONFIG = """
[basis]
p = 2

[learning]
function = quad_drag_drift
delta = 0.01
n_samples = 2000
seed = 11

[scenario]
duration = 0.5
seed = 11

[sweep]
functions = cubic_drift
p_values = 1, 3
noise_variances = 0, 0.05
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "experiment.ini"
    path.write_text(BASE_CONFIG)
    return path


def random_model(rng, normalize=False) -> SeparatedModel:
    cfg = BasisConfig(p=2, n=1, x_box=(-10.0, 10.0), t_box=(0.0, 100.0),
                      normalize=normalize)
    # awkward magnitudes exercise the 17-digit round trip
    theta = rng.standard_normal((1, cfg.s1)) * np.logspace(-8, 6, cfg.s1)
    return SeparatedModel(theta=theta, config=cfg)


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        path = tmp_path / "model.txt"
        fileio.save_model(path, model, seed=3, delta=0.01, digest="sha256:abc")
        loaded = fileio.load_model(path)
        assert np.array_equal(loaded.theta, model.theta)
        assert loaded.config == model.config

    def test_round_trip_preserves_normalization(self, tmp_path):
        model = random_model(np.random.default_rng(1), normalize=True)
        path = tmp_path / "model.txt"
        fileio.save_model(path, model)
        assert fileio.load_model(path).config.normalize is True

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            fileio.load_model(tmp_path / "absent.txt")

    def test_corrupt_header(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("format_version = 1\np = 2\n")
        with pytest.raises(DataError):
            fileio.load_model(path)

    def test_shape_mismatch(self, tmp_path):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        path = tmp_path / "model.txt"
        fileio.save_model(path, model)
        text = path.read_text().replace("theta_rows = 1", "theta_rows = 2")
        path.write_text(text)
        with pytest.raises(DataError):
            fileio.load_model(path)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        data = TrajectoryDataset(t=np.sort(rng.uniform(0, 1, 20)),
                                 x=rng.standard_normal((20, 2)),
                                 u=rng.standard_normal((20, 1)),
                                 delta=rng.standard_normal((20, 2)))
        path = tmp_path / "data.csv"
        fileio.save_dataset(path, data)
        loaded = fileio.load_dataset(path)
        assert np.array_equal(loaded.t, data.t)
        assert np.array_equal(loaded.x, data.x)
        assert np.array_equal(loaded.u, data.u)
        assert np.array_equal(loaded.delta, data.delta)

    def test_header_schema(self, tmp_path):
        data = TrajectoryDataset(t=[0.0], x=[[1.0]], u=[[2.0]], delta=[[3.0]])
        path = tmp_path / "data.csv"
        fileio.save_dataset(path, data)
        header = path.read_text().splitlines()[0]
        assert header == "t,x_1,u_1,delta_1"

    def test_without_targets(self, tmp_path):
        data = TrajectoryDataset(t=[0.0, 1.0], x=[[1.0], [2.0]], u=[[0.0], [0.0]])
        path = tmp_path / "data.csv"
        fileio.save_dataset(path, data)
        assert fileio.load_dataset(path).delta is None

    def test_bad_columns_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("time,x_1\n0,1\n")
        with pytest.raises(DataError):
            fileio.load_dataset(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("t,x_1,u_1\n")
        with pytest.raises(DataError):
            fileio.load_dataset(path)

    def test_header_only_rejected_without_warning(self, tmp_path):
        path = tmp_path / "data.csv"
        for text in ("t,x_1,u_1\n", "t,x_1,u_1\n\n\r\n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match="no records"):
                    fileio.load_dataset(path)

    def test_uniformly_short_rows_name_the_first(self, tmp_path):
        # every row has the same, wrong width: still a bad record on line 2
        path = tmp_path / "data.csv"
        path.write_text("t,x_1,u_1\n0,1\n0.1,2\n0.2,3\n")
        with pytest.raises(DataError, match=r"data\.csv, line 2: 2 fields, header has 3"):
            fileio.load_dataset(path)

    @pytest.mark.parametrize("text, rows", [
        ("t,x_1,u_1\n0,1_000,0\n0.5,2,-1\n", [[0.0, 1000.0, 0.0], [0.5, 2.0, -1.0]]),
        ('t,x_1,u_1\n0,"1.5",0\n0.5,2,-1\n', [[0.0, 1.5, 0.0], [0.5, 2.0, -1.0]]),
        ("t,x_1,u_1\n\n0,1,0\n\n\n0.5,2,-1\n\n", [[0.0, 1.0, 0.0], [0.5, 2.0, -1.0]]),
        ("t,x_1,u_1\r\n0,1,0\r\n\r\n0.5,2,-1\r\n", [[0.0, 1.0, 0.0], [0.5, 2.0, -1.0]]),
    ], ids=["underscore", "quoted", "blank-lines", "crlf"])
    def test_accepted_cells_and_line_ends(self, tmp_path, text, rows):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        data = fileio.load_dataset(path)
        rows = np.array(rows)
        assert np.array_equal(data.t, rows[:, 0])
        assert np.array_equal(data.x, rows[:, 1:2])
        assert np.array_equal(data.u, rows[:, 2:3])
        assert data.delta is None

    @pytest.mark.parametrize("bad_row", ["0.1,oops,0", "0.1,2", "0.1,2,0,5"])
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, bad_row):
        path = tmp_path / "data.csv"
        path.write_text("t,x_1,u_1\n0,1,0\n\n" + bad_row + "\n0.2,3,0\n")
        with pytest.raises(DataError, match=r"data\.csv, line 4"):
            fileio.load_dataset(path)
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[io]\ndataset_file = {path}\n")
        assert cli.main(["learn", "--config", str(ini), "--out", str(tmp_path / "o")]) == 3
        assert "data.csv, line 4" in capsys.readouterr().err


class TestScenarioCsv:
    def test_golden_header(self, tmp_path):
        res = run_scenario(ScenarioConfig(mode="none", duration=0.01, seed=0))
        path = tmp_path / "scenario.csv"
        fileio.save_scenario(path, res)
        assert path.read_text().splitlines()[0] == \
            "t,eta,eta_d,v,u,delta_true,delta_hat,mode"

    def test_metrics_recomputable_from_csv(self, tmp_path):
        res = run_scenario(ScenarioConfig(mode="ndo", duration=0.2, seed=4))
        path = tmp_path / "scenario.csv"
        fileio.save_scenario(path, res)
        _, eta, eta_d, _, _, delta_true, delta_hat = np.loadtxt(
            path, delimiter=",", skiprows=1, usecols=range(7), unpack=True)
        assert abs(np.mean(np.abs(eta - eta_d)) - res.tracking_mae()) < 1e-12
        assert abs(np.mean(np.abs(delta_true - delta_hat)) - res.estimation_mae()) < 1e-12


def _fmt_rows_reference(columns):
    """Rows of fileio.fmt cells, one per value: the per-value writer path."""
    cols = [np.asarray(c)[:, None] if np.ndim(c) == 1 else np.asarray(c) for c in columns]
    return [[fileio.fmt(v) for v in np.hstack([c[i] for c in cols])]
            for i in range(len(cols[0]))]


def _special_values(rng, shape):
    """Random values of every magnitude, with the awkward floats planted in."""
    vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310,
               2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 0.1, 1 / 3]
    flat = vals.reshape(-1)
    flat[:min(len(special), flat.size)] = special[:flat.size]
    rng.shuffle(flat)
    return vals


BLOCK = fileio._BLOCK_ROWS


class TestSeriesWriters:
    """The block writers give the bytes of csv.writer with fmt per value."""

    @pytest.mark.parametrize("rows", [0, 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("with_delta", [False, True])
    def test_dataset_bytes(self, tmp_path, rows, with_delta):
        rng = np.random.default_rng(rows)
        data = TrajectoryDataset(t=np.zeros(rows), x=np.zeros((rows, 2)),
                                 u=np.zeros((rows, 1)),
                                 delta=np.zeros((rows, 2)) if with_delta else None)
        # the container rejects non-finite values; the writer must not care
        data.t[:] = _special_values(rng, rows)
        data.x[:] = _special_values(rng, (rows, 2))
        data.u[:] = _special_values(rng, (rows, 1))
        columns = [data.t, data.x, data.u]
        if with_delta:
            data.delta[:] = _special_values(rng, (rows, 2))
            columns.append(data.delta)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fileio.dataset_columns(2, 1, with_delta))
            writer.writerows(_fmt_rows_reference(columns))
        path = tmp_path / "data.csv"
        fileio.save_dataset(path, data)
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_bytes().count(b"\r\n") == rows + 1

    @pytest.mark.parametrize("rows", [0, 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("mode", ["hodo", "a,b%s"])
    def test_scenario_bytes(self, tmp_path, rows, mode):
        rng = np.random.default_rng(rows)
        series = [_special_values(rng, rows) for _ in range(7)]
        result = ScenarioResult(mode, *series)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fileio.SCENARIO_CSV_COLUMNS)
            writer.writerows(row + [mode] for row in _fmt_rows_reference(series))
        path = tmp_path / "scenario.csv"
        fileio.save_scenario(path, result)
        assert path.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("rows", [0, 1, BLOCK, BLOCK + 1])
    def test_sigma_bytes(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        t = _special_values(rng, rows)
        sigma = _special_values(rng, (rows, 3))
        result = ScenarioResult("hodo", t, *[t] * 6, sigma_hat=sigma)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "sigma_1", "sigma_2", "sigma_3"])
            writer.writerows(_fmt_rows_reference([t, sigma]))
        path = tmp_path / "sigma.csv"
        fileio.save_sigma_series(path, result)
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_bytes().count(b"\r\n") == rows + 1

    def test_written_dataset_loads_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(8)
        n = BLOCK + 1

        def finite(shape):
            vals = _special_values(rng, shape)
            return np.where(np.isfinite(vals), vals, 1.0)
        data = TrajectoryDataset(t=finite(n), x=finite((n, 2)), u=finite((n, 1)),
                                 delta=finite((n, 2)))
        path = tmp_path / "data.csv"
        fileio.save_dataset(path, data)
        loaded = fileio.load_dataset(path)
        for name in ("t", "x", "u", "delta"):
            assert np.array_equal(getattr(loaded, name), getattr(data, name))


class TestDigest:
    def test_stable_and_order_sensitive(self):
        data = TrajectoryDataset(t=[0.0, 1.0], x=[[1.0], [2.0]], u=[[0.0], [0.0]])
        flipped = data.subset(np.array([1, 0]))
        assert fileio.dataset_digest(data) == fileio.dataset_digest(data)
        assert fileio.dataset_digest(data) != fileio.dataset_digest(flipped)


def test_package_exports_resolve_once():
    import coupled_do
    assert len(set(coupled_do.__all__)) == len(coupled_do.__all__)
    for name in coupled_do.__all__:
        assert hasattr(coupled_do, name), name


class TestConfig:
    def test_defaults_applied(self, config_file):
        typed = fileio.load_config(config_file)
        assert typed["scenario"].k_eta == 10.0
        assert typed["scenario"].poles == (-0.4, -0.4, -0.4)
        assert typed["learning"].p == 2

    def test_every_scenario_key_reaches_its_field(self, tmp_path):
        # a non-default value for each [scenario]/[observer] key that is a
        # ScenarioConfig field lands in the field of the same name
        values = {
            "observer": {"poles": (-0.5, -0.75, -1.25), "ndo_gain": 0.625},
            "scenario": {"k_eta": 12.5, "k_v": 30.25, "mass": 2.5, "eta0": 0.125,
                         "v0": -0.375, "sigma_v2": 0.0625, "dt": 0.002,
                         "duration": 1.5, "seed": 17, "log_sigma": True},
        }

        def ini(value):
            return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value).lower()
        path = tmp_path / "all.ini"
        path.write_text("".join(f"[{sec}]\n" + "".join(f"{k} = {ini(v)}\n" for k, v in kv.items())
                                for sec, kv in values.items()))
        scenario = fileio.load_config(path)["scenario"]
        assert scenario.mode == "none"
        defaults = ScenarioConfig()
        for kv in values.values():
            for key, value in kv.items():
                assert getattr(defaults, key) != value, key
                assert getattr(scenario, key) == value, key

    def test_field_path_in_errors(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\ndt = -1\n")
        with pytest.raises(ConfigError, match="scenario.dt"):
            fileio.load_config(path)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nwarp = 9\n")
        with pytest.raises(ConfigError, match="scenario.warp"):
            fileio.load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[telemetry]\nx = 1\n")
        with pytest.raises(ConfigError, match="telemetry"):
            fileio.load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            fileio.load_config(tmp_path / "absent.ini")

    @pytest.mark.parametrize("orders", ["1, 1.7", "-1, 2"])
    def test_bad_sweep_orders_rejected(self, tmp_path, orders):
        path = tmp_path / "bad.ini"
        path.write_text(f"[sweep]\np_values = {orders}\n")
        with pytest.raises(ConfigError, match="sweep.p_values"):
            fileio.load_config(path)

    @pytest.mark.parametrize("noise", ["-0.1", "0, -1e-9", "nan"])
    def test_bad_sweep_noise_rejected(self, tmp_path, capsys, noise):
        path = tmp_path / "bad.ini"
        path.write_text(f"[sweep]\nnoise_variances = {noise}\n")
        with pytest.raises(ConfigError, match="sweep.noise_variances"):
            fileio.load_config(path)
        assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o" / "sweep.csv").exists()

    # every float field, as "section", "field", INI value with {} for the number
    FLOAT_FIELDS = [
        ("basis", "x_box", "-1, {}"), ("basis", "t_box", "0, {}"),
        ("learning", "delta", "{}"), ("learning", "train_fraction", "{}"),
        ("learning", "noise_variance", "{}"),
        ("observer", "poles", "{}, -0.4, -0.4"), ("observer", "ndo_gain", "{}"),
        ("scenario", "k_eta", "{}"), ("scenario", "k_v", "{}"),
        ("scenario", "mass", "{}"), ("scenario", "eta0", "{}"),
        ("scenario", "v0", "{}"), ("scenario", "sigma_v2", "{}"),
        ("scenario", "dt", "{}"), ("scenario", "duration", "{}"),
        ("sweep", "p_values", "1, {}"), ("sweep", "noise_variances", "0, {}"),
    ]

    @pytest.mark.parametrize("section, key, template", FLOAT_FIELDS,
                             ids=[f"{s}.{k}" for s, k, _ in FLOAT_FIELDS])
    @pytest.mark.parametrize("number", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, tmp_path, capsys, section, key, template,
                                        number):
        # short runs, should a bad value get through
        ini = {"scenario": {"duration": "0.05"}}
        ini.setdefault(section, {})[key] = template.format(number)
        path = tmp_path / "bad.ini"
        path.write_text("".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                                for sec, kv in ini.items()))
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: must be finite"):
            fileio.load_config(path)
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out),
                         "--modes", "none,ndo"]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_repeated_modes_run_once(self, config_file, tmp_path, capsys):
        # a repeat would rerun the scenario, rewrite its CSV and append a second row
        path = tmp_path / "repeats.ini"
        path.write_text("[scenario]\nmodes = none, ndo, none\nduration = 0.05\n")
        assert fileio.load_config(path)["modes"] == ["none", "ndo"]
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        assert cli.main(["simulate", "--config", str(config_file), "--out", str(out),
                         "--modes", "ndo,ndo"]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            assert [row["mode"] for row in csv.DictReader(fh)] == ["none", "ndo", "ndo"]
        assert capsys.readouterr().out.count("ndo: tracking MAE") == 2

    @pytest.mark.parametrize("modes", [",", " , ,"])
    def test_empty_mode_list_rejected(self, config_file, tmp_path, capsys, modes):
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(config_file), "--out", str(out),
                         "--modes", modes]) == 2
        assert "--modes: must list at least one" in capsys.readouterr().err
        path = tmp_path / "bad.ini"
        path.write_text(f"[scenario]\nmodes = {modes}\n")
        with pytest.raises(ConfigError, match="scenario.modes: must list at least one"):
            fileio.load_config(path)
        assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("command, section, key, value", [
        ("learn", "learning", "function", "nosuch"),
        ("sweep", "sweep", "functions", "cubic_drift, nosuch"),
        ("sweep", "sweep", "functions", ","),
    ])
    def test_disturbance_names_checked(self, tmp_path, capsys, command, section, key, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"^{section}\.{key}: "):
            fileio.load_config(path)
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_bad_poles_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[observer]\npoles = 0.4, -0.4, -0.4\n")
        with pytest.raises(ConfigError, match="observer.poles"):
            fileio.load_config(path)

    @pytest.mark.parametrize("window, fit_order, field", [
        ("8", "3", "learning.window"), ("3", "3", "learning.window"),
        ("9", "0", "learning.fit_order"),
    ])
    def test_window_and_fit_order_checked(self, tmp_path, capsys, window, fit_order, field):
        path = tmp_path / "bad.ini"
        path.write_text(f"[learning]\nwindow = {window}\nfit_order = {fit_order}\n")
        with pytest.raises(ConfigError, match=rf"^{field}: "):
            fileio.load_config(path)
        # checked even when no dataset file makes learn recover targets
        assert cli.main(["learn", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")

    def test_every_learning_key_reaches_its_field(self, tmp_path):
        # a non-default value for each [basis]/[learning]/[sweep] key lands in
        # the LearningConfig field of the same name
        values = {
            "basis": {"p": 4, "normalize": True, "x_box": (-3.5, 2.5), "t_box": (1.0, 9.0)},
            "learning": {"function": "cubic_drift", "delta": 0.25, "n_samples": 1234,
                         "train_fraction": 0.625, "window": 11, "fit_order": 4, "seed": 17,
                         "noise_variance": 0.375},
            "sweep": {"functions": ("cubic_drift", "sine_product"), "p_values": (2, 5),
                      "noise_variances": (0.0, 0.125)},
        }

        def ini(value):
            return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value).lower()
        path = tmp_path / "all.ini"
        path.write_text("".join(f"[{sec}]\n" + "".join(f"{k} = {ini(v)}\n" for k, v in kv.items())
                                for sec, kv in values.items()))
        learning = fileio.load_config(path)["learning"]
        defaults = LearningConfig()
        for kv in values.values():
            for key, value in kv.items():
                assert getattr(defaults, key) != value, key
                assert getattr(learning, key) == value, key

    def test_grid_values_deduplicated_with_zero_unsigned(self):
        cfg = LearningConfig(functions=("cubic_drift", "sine_cubic", "cubic_drift"),
                             p_values=(2, 2.0, 1), noise_variances=(0.01, -0.0, 0, 0.01),
                             noise_variance=-0.0)
        assert cfg.functions == ("cubic_drift", "sine_cubic")
        assert cfg.p_values == (2, 1)
        assert cfg.noise_variances == (0.01, 0.0)
        assert [math.copysign(1.0, v) for v in (*cfg.noise_variances, cfg.noise_variance)] \
            == [1.0, 1.0, 1.0]

    # each check as (section, key, INI value, the library call that applies it)
    SHARED_CHECKS = {
        "train_fraction": ("learning", "train_fraction", "1.5", lambda data, rng: split_dataset(
            data, 1.5, rng)),
        "window": ("learning", "window", "8", lambda data, rng: targets_from_trajectory(
            data, *newton_velocity_channel(), window=8)),
        "fit_order": ("learning", "fit_order", "0", lambda data, rng: targets_from_trajectory(
            data, *newton_velocity_channel(), window=9, fit_order=0)),
        "delta": ("learning", "delta", "-3", lambda data, rng: fit_rls(
            data, BasisConfig(p=1, n=1), -3.0)),
        "n_samples": ("learning", "n_samples", "0", lambda data, rng: synthesize_dataset(
            disturbance("cubic_drift"), (-2.0, 2.0), (0.0, 4.0), 0, rng)),
        "p": ("basis", "p", "-1", lambda data, rng: BasisConfig(p=-1, n=1)),
        "x_box": ("basis", "x_box", "3, 1", lambda data, rng: BasisConfig(
            p=1, n=1, x_box=(3.0, 1.0))),
        "t_box": ("basis", "t_box", "3, 1", lambda data, rng: synthesize_dataset(
            disturbance("cubic_drift"), (-2.0, 2.0), (3.0, 1.0), 10, rng)),
        "seed": ("scenario", "seed", "-3", lambda data, rng: ScenarioConfig(seed=-3)),
        "function": ("learning", "function", "nosuch", lambda data, rng: disturbance("nosuch")),
    }

    @pytest.mark.parametrize("check", SHARED_CHECKS)
    def test_config_and_library_share_each_check(self, tmp_path, check):
        section, key, raw, call = self.SHARED_CHECKS[check]
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError) as from_config:
            fileio.load_config(path)
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 2.0, 40)
        data = TrajectoryDataset(t=t, x=np.sin(t), u=np.zeros(40), delta=np.cos(t))
        with pytest.raises((ConfigError, DataError)) as from_library:
            call(data, rng)
        assert str(from_config.value).startswith(f"{section}.{key}: ")
        assert str(from_library.value) == str(from_config.value)

    def test_plant_key_is_unknown(self, tmp_path, capsys):
        path = tmp_path / "plant.ini"
        path.write_text("[scenario]\nplant = newton\n")
        with pytest.raises(ConfigError, match=r"^scenario\.plant: unknown field$"):
            fileio.load_config(path)
        assert cli.main(["learn", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "configuration error: scenario.plant: unknown field\n"

    def test_results_file_key_is_unknown(self, tmp_path, capsys):
        # each result file has one place, its name in the output directory
        out = tmp_path / "o"
        path = tmp_path / "results.ini"
        path.write_text(f"[io]\nout_dir = {out}\nresults_file = {tmp_path / 'r.csv'}\n")
        for command in (["learn"], ["sweep"], ["simulate", "--modes", "none"]):
            assert cli.main([command[0], "--config", str(path)] + command[1:]) == 2
            assert capsys.readouterr().err == "configuration error: io.results_file: unknown field\n"
        assert list(tmp_path.iterdir()) == [path]


class TestCliExitCodes:
    def test_learn_success(self, config_file, tmp_path, capsys):
        code = cli.main(["learn", "--config", str(config_file),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "test MAE" in out
        assert (tmp_path / "out" / "model.txt").exists()
        assert (tmp_path / "out" / "fit_reports.csv").exists()

    def test_config_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[learning]\ndelta = -3\n")
        assert cli.main(["learn", "--config", str(bad)]) == 2
        assert "learning.delta" in capsys.readouterr().err

    def test_missing_dataset_is_3(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[io]\ndataset_file = %s\n" % (tmp_path / "nope.csv"))
        assert cli.main(["learn", "--config", str(ini)]) == 3
        assert "nope.csv" in capsys.readouterr().err

    def test_missing_config_is_2(self, tmp_path):
        assert cli.main(["learn", "--config", str(tmp_path / "absent.ini")]) == 2

    def test_simulate_requires_model_for_hodo(self, config_file, tmp_path, capsys):
        # without io.model_file, hodo reads the model.txt that learn writes
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(config_file),
                         "--out", str(out), "--modes", "none,hodo"]) == 3
        assert capsys.readouterr().err == f"data error: model file not found: {out / 'model.txt'}\n"
        assert not (out / "scenario_none.csv").exists()

    def test_simulate_pole_count_must_match_model(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["learn", "--config", str(config_file), "--out", str(out)]) == 0
        ini = tmp_path / "sim.ini"
        ini.write_text(BASE_CONFIG + "\n[observer]\npoles = -0.4, -0.5\n"
                       f"\n[io]\nmodel_file = {out / 'model.txt'}\n")
        assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                         "--modes", "hodo"]) == 2
        assert "observer.poles" in capsys.readouterr().err

    def test_unknown_cli_mode_names_the_flag(self, config_file, tmp_path, capsys):
        assert cli.main(["simulate", "--config", str(config_file),
                         "--out", str(tmp_path / "o"), "--modes", "hodo,warp"]) == 2
        assert "--modes: must be none|ndo|hodo, got 'warp'" in capsys.readouterr().err

    def test_model_basis_mismatch_is_3(self, tmp_path, capsys):
        def p1_header(text):
            # a p = 2 theta block (9 columns) under a p = 1 header (s1 = 4)
            return text.replace("p = 2", "p = 1"), "-0.4, -0.4", "theta has 9 columns"

        def two_rows(text):
            # a second theta row under an n = 1 header
            head, _, row = text.rpartition("\n  ")
            return (head.replace("theta_rows = 1", "theta_rows = 2") + "\n  " + row
                    + "  " + row, "-0.4, -0.4, -0.4", "theta has 2 rows")

        for edit in (p1_header, two_rows):
            model = tmp_path / f"{edit.__name__}.txt"
            fileio.save_model(model, random_model(np.random.default_rng(5)))
            text, poles, message = edit(model.read_text())
            model.write_text(text)
            with pytest.raises(DataError, match=message):
                fileio.load_model(model)
            ini = tmp_path / "sim.ini"
            ini.write_text(BASE_CONFIG + f"\n[observer]\npoles = {poles}\n"
                           f"\n[io]\nmodel_file = {model}\n")
            assert cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o"),
                             "--modes", "hodo"]) == 3
            assert message in capsys.readouterr().err

    def test_overflowing_dataset_is_4(self, tmp_path, capsys):
        # one state of 1e60 under a raw p = 6 basis: T_6 overflows
        x = np.linspace(-1.0, 1.0, 40)
        x[3] = 1e60
        data = tmp_path / "data.csv"
        fileio.save_dataset(data, TrajectoryDataset(t=np.linspace(0.0, 4.0, 40), x=x,
                                                    u=np.zeros(40), delta=np.ones(40)))
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[basis]\np = 6\n[io]\ndataset_file = {data}\n")
        # pytest records warnings instead of printing them: record them here
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["learn", "--config", str(ini), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: regularized Gram has non-finite entries")
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []
        assert not (tmp_path / "o" / "model.txt").exists()

    def test_unstable_observer_pole_is_2(self, tmp_path, capsys):
        # G dt = 3 lies outside the RK4 step's stability interval (2.785):
        # refused before any scenario runs, so no series is written
        ini = tmp_path / "exp.ini"
        ini.write_text("[scenario]\nduration = 2\n\n[observer]\nndo_gain = 3000\n")
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                         "--modes", "none,ndo"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: observer.ndo_gain: ")
        assert not (out / "scenario_none.csv").exists()
        assert not (out / "scenario_ndo.csv").exists()

    def test_diverging_closed_loop_is_4(self, tmp_path, capsys):
        # k_v dt = 5 makes the sampled PD loop unstable: the loop diverges
        # and the plant state goes non-finite within a few steps
        ini = tmp_path / "exp.ini"
        ini.write_text("[scenario]\nduration = 2\nk_v = 5000\n")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                             "--modes", "ndo"]) == 4
        err = capsys.readouterr().err
        # the partial series is written, and the error names its last step
        with open(out / "scenario_ndo.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert 1 < len(rows) < 2000
        assert err.startswith(f"numerical failure: mode ndo: plant state non-finite after "
                              f"the step from t = {float(rows[-1]['t']):g};")
        assert (out / "metrics.csv").exists()
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []

    @pytest.mark.parametrize("modes", ["none", "ndo,none"])
    def test_unallocatable_step_count_is_4(self, tmp_path, capsys, modes):
        # 1e19 steps: the series would pass the address space, so nothing is allocated
        ini = tmp_path / "exp.ini"
        ini.write_text("[scenario]\nduration = 1e16\n")
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                         "--modes", modes]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the series of 10000000000000000000 steps")
        assert "Traceback" not in err
        assert not list(out.glob("*.csv"))

    def test_overflowing_disturbance_is_4(self, tmp_path, capsys):
        # v0**2 overflows the float range in the first step's disturbance
        ini = tmp_path / "exp.ini"
        ini.write_text("[scenario]\nduration = 2\nv0 = 1e200\n")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                             "--modes", "none"]) == 4
        err = capsys.readouterr().err
        with open(out / "scenario_none.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert err.startswith("numerical failure: mode none: plant state non-finite after "
                              "the step from t = 0;")
        assert "Traceback" not in err
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []

    def test_feature_dim_other_than_one_is_3(self, tmp_path, capsys):
        # p = 1 and four poles fit a two-feature tensor basis (s1 = 8, s2 = 4),
        # for which the scalar-time exosystem is wrong
        model = tmp_path / "model.txt"
        model.write_text("format_version = 1\np = 1\nn = 1\nfeature_dim = 2\n"
                         "normalize = false\nx_box = -10,10\nt_box = 0,100\nseed = \n"
                         "ridge_delta = \ndataset_digest = \n"
                         "created = 2026-01-01T00:00:00+00:00\n"
                         "theta_rows = 1\ntheta_cols = 8\ntheta =\n  1 0 1 0 1 0 1 0\n")
        with pytest.raises(DataError, match="feature_dim = 2"):
            fileio.load_model(model)
        ini = tmp_path / "sim.ini"
        ini.write_text(BASE_CONFIG + "\n[observer]\npoles = -0.4, -0.4, -0.4, -0.4\n"
                       f"\n[io]\nmodel_file = {model}\n")
        assert cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o"),
                         "--modes", "hodo"]) == 3
        assert str(model) in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("format_version = 1\n", "format_version = 2\n", "unsupported model format version 2"),
        ("theta_cols = 9\n", "", "missing field 'theta_cols'"),
        ("p = 2\n", "p = two\n", "malformed: invalid literal for int() with base 10: 'two'"),
        ("theta_cols = 9\n", "theta_cols = 8\n", "theta block is (1, 9), header says (1, 8)"),
        ("normalize = false\n", "normalize = True\n", "normalize = True, expected true or false"),
        ("\nn = 1\n", "\nn 1\n", "line not key = value: 'n 1'"),
    ], ids=["version", "missing_field", "malformed_number", "theta_size", "normalize",
            "not_key_value"])
    def test_bad_model_file_is_3_and_named(self, tmp_path, capsys, old, new, message):
        model = tmp_path / "model.txt"
        fileio.save_model(model, random_model(np.random.default_rng(5)))
        text = model.read_text()
        assert old in text
        model.write_text(text.replace(old, new))
        ini = tmp_path / "sim.ini"
        ini.write_text(BASE_CONFIG + f"\n[io]\nmodel_file = {model}\n")
        assert cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o"),
                         "--modes", "none,hodo"]) == 3
        assert capsys.readouterr().err == f"data error: model file {model}: {message}\n"
        assert sorted(tmp_path.iterdir()) == [model, ini]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_theta_is_3_and_named(self, tmp_path, capsys, value):
        model = tmp_path / "model.txt"
        fileio.save_model(model, random_model(np.random.default_rng(5)))
        lines = model.read_text().splitlines()
        coefs = lines[-1].split()
        lines[-1] = "  " + " ".join(coefs[:-1] + [value])
        model.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="non-finite"):
            fileio.load_model(model)
        ini = tmp_path / "sim.ini"
        ini.write_text(BASE_CONFIG + f"\n[io]\nmodel_file = {model}\n")
        assert cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o"),
                         "--modes", "hodo"]) == 3
        assert str(model) in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    def test_duration_that_holds_no_step_is_2(self, tmp_path, capsys):
        ini = tmp_path / "short.ini"
        ini.write_text(BASE_CONFIG.replace("duration = 0.5", "duration = 0.0001"))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                         "--modes", "none,ndo"]) == 2
        assert "scenario.duration" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_step_count_that_overflows_is_2(self, tmp_path, capsys):
        # duration / dt is inf: rejected before anything is allocated
        ini = tmp_path / "tiny_dt.ini"
        ini.write_text(BASE_CONFIG.replace("duration = 0.5", "duration = 1\ndt = 1e-320"))
        out = tmp_path / "o"
        assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                         "--modes", "none"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: scenario.duration: ")
        assert "scenario.dt" in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("command, field", [
        ("learn", "learning.seed"), ("sweep", "learning.seed"), ("simulate", "scenario.seed"),
    ])
    def test_negative_seed_is_2(self, config_file, tmp_path, capsys, command, field):
        out = tmp_path / "o"
        modes = ["--modes", "none"] if command == "simulate" else []
        argv = [command, "--out", str(out)] + modes
        assert cli.main(argv + ["--config", str(config_file), "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: --seed: must be >= 0")
        section, key = field.split(".")
        ini = tmp_path / "neg.ini"
        ini.write_text(f"[{section}]\n{key} = -3\n")
        with pytest.raises(ConfigError, match=rf"^{field}: must be >= 0"):
            fileio.load_config(ini)
        assert cli.main(argv + ["--config", str(ini)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}: ")
        assert not out.exists()

    def test_order_that_cannot_be_allocated_is_4(self, tmp_path, capsys):
        # p = 1e12 over 5000 training rows asks for 36 PiB, beyond any address
        # space: NumPy refuses the shape before it allocates anything
        ini = tmp_path / "huge.ini"
        ini.write_text("[basis]\np = 1000000000000\nnormalize = true\n")
        out = tmp_path / "o"
        assert cli.main(["learn", "--config", str(ini), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ")
        assert "N = 5000, s1 = 1000000000002000000000001" in err
        assert "Traceback" not in err
        assert not (out / "model.txt").exists()

    def test_sweep_cell_of_an_order_that_cannot_be_allocated(self, tmp_path, capsys):
        # 500 training rows: 3.6 PiB, still beyond any address space
        ini = tmp_path / "huge.ini"
        ini.write_text("[learning]\nn_samples = 1000\n[sweep]\nfunctions = cubic_drift\n"
                       "p_values = 2, 1000000000000\nnoise_variances = 0\n")
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", str(ini), "--out", str(out)]) == 4
        with open(out / "sweep.csv", newline="") as fh:
            status = [r["status"] for r in csv.DictReader(fh)]
        assert status[0] == "ok"
        assert status[1].startswith("error: NumericalError: ")
        assert "N = 500, s1 = 1000000000002000000000001" in status[1]

    def test_simulate_rejects_multi_state_model(self, tmp_path, capsys):
        cfg = BasisConfig(p=2, n=2, x_box=[(-10.0, 10.0)] * 2, t_box=(0.0, 100.0))
        model = tmp_path / "model.txt"
        fileio.save_model(model, SeparatedModel(
            theta=np.random.default_rng(6).standard_normal((2, cfg.s1)), config=cfg))
        ini = tmp_path / "sim.ini"
        ini.write_text(BASE_CONFIG + f"\n[io]\nmodel_file = {model}\n")
        assert cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o"),
                         "--modes", "hodo"]) == 2
        assert "io.model_file" in capsys.readouterr().err

    def test_refused_simulate_leaves_no_out_dir(self, tmp_path, capsys):
        # the output directory is made just before the first write: a hodo
        # run refused for a missing model leaves none behind
        out = tmp_path / "out"
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[io]\nout_dir = {out}\n")
        assert cli.main(["simulate", "--config", str(ini), "--modes", "hodo"]) == 3
        assert capsys.readouterr().err == f"data error: model file not found: {out / 'model.txt'}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["learn", "sweep", "simulate"])
    @pytest.mark.parametrize("source", ["--out", "io.out_dir"])
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below_file"])
    def test_output_path_through_a_file_is_2(self, tmp_path, capsys, monkeypatch,
                                             command, source, below):
        # the output path is checked with the inputs: no fit, sweep cell or
        # scenario runs, and nothing is written
        def work(*args, **kwargs):
            raise AssertionError("work started before the output path was checked")
        for name in ("fit_rls", "sweep", "run_scenario"):
            monkeypatch.setattr(cli, name, work)
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / below
        ini = tmp_path / "exp.ini"
        section = f"\n[io]\nout_dir = {out}\n" if source == "io.out_dir" else ""
        ini.write_text(BASE_CONFIG + section)
        argv = [command, "--config", str(ini)] + (["--out", str(out)] if source == "--out" else [])
        modes = ["--modes", "none"] if command == "simulate" else []
        assert cli.main(argv + modes) == 2
        assert capsys.readouterr().err == (f"configuration error: {source}: "
                                           f"{afile} is not a directory\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "exp.ini"]
        assert afile.read_text() == "kept\n"

    def test_model_file_directory_checked_before_the_fit(self, tmp_path, capsys, monkeypatch):
        fits = []
        fit = cli.fit_rls
        monkeypatch.setattr(cli, "fit_rls", lambda *args, **kw: fits.append(1) or fit(*args, **kw))
        out = tmp_path / "out"
        model = tmp_path / "nodir" / "model.txt"
        ini = tmp_path / "exp.ini"
        ini.write_text(BASE_CONFIG + f"\n[io]\nout_dir = {out}\nmodel_file = {model}\n")
        assert cli.main(["learn", "--config", str(ini)]) == 2
        assert capsys.readouterr().err == (f"configuration error: io.model_file: "
                                           f"{model.parent} is not a directory\n")
        assert not fits and not out.exists()
        # an existing directory, or the output directory still to be made, holds it
        model.parent.mkdir()
        assert cli.main(["learn", "--config", str(ini)]) == 0
        in_out = out / "later" / "model.txt"
        ini.write_text(BASE_CONFIG + f"\n[io]\nout_dir = {in_out.parent}\nmodel_file = {in_out}\n")
        assert cli.main(["learn", "--config", str(ini)]) == 0
        assert model.exists() and in_out.exists() and len(fits) == 2

    def test_empty_dataset_is_3(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("")
        out = tmp_path / "out"
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[io]\nout_dir = {out}\ndataset_file = {data}\n")
        assert cli.main(["learn", "--config", str(ini)]) == 3
        assert capsys.readouterr().err == f"data error: dataset file is empty: {data}\n"
        assert sorted(tmp_path.iterdir()) == [data, ini]

    def test_normalize_not_a_bool_is_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[basis]\nnormalize = yes\n\n[io]\nout_dir = {out}\n")
        assert cli.main(["learn", "--config", str(ini)]) == 2
        assert capsys.readouterr().err == ("configuration error: basis.normalize: "
                                           "cannot parse 'yes' (expected true or false)\n")
        assert sorted(tmp_path.iterdir()) == [ini]

    def test_ini_without_section_header_is_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        ini = tmp_path / "exp.ini"
        ini.write_text(f"out_dir = {out}\n")
        assert cli.main(["learn", "--config", str(ini), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "configuration error: config file malformed: File contains no section headers.")
        assert sorted(tmp_path.iterdir()) == [ini]

    def test_verify_full(self, capsys):
        assert cli.main(["verify", "--level", "full"]) == 0
        out = capsys.readouterr().out
        assert "(s2=3, 1000 rows)" in out and "[FAIL]" not in out

    def test_verify_fast(self, capsys):
        assert cli.main(["verify", "--level", "fast"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out


class TestCliPipelines:
    def test_learn_then_simulate(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["learn", "--config", str(config_file), "--out", str(out)]) == 0
        ini = tmp_path / "sim.ini"
        ini.write_text(BASE_CONFIG + f"\n[io]\nmodel_file = {out / 'model.txt'}\n")
        assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                         "--modes", "none,ndo,hodo"]) == 0
        for mode in ("none", "ndo", "hodo"):
            assert (out / f"scenario_{mode}.csv").exists()
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert metrics[0] == ",".join(fileio.METRICS_CSV_COLUMNS)
        assert len(metrics) == 4

    def test_simulate_logs_sigma_series(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["learn", "--config", str(config_file), "--out", str(out)]) == 0
        ini = tmp_path / "sim.ini"
        ini.write_text(BASE_CONFIG.replace("duration = 0.5", "duration = 0.05\nlog_sigma = true")
                       + f"\n[io]\nmodel_file = {out / 'model.txt'}\n")
        assert cli.main(["simulate", "--config", str(ini), "--out", str(out),
                         "--modes", "hodo"]) == 0
        lines = (out / "scenario_hodo_sigma.csv").read_text().splitlines()
        assert lines[0] == "t,sigma_1,sigma_2,sigma_3"

        typed = fileio.load_config(ini)
        result = run_scenario(replace(typed["scenario"], mode="hodo",
                                      model=fileio.load_model(out / "model.txt")))
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert len(values) == len(result.t) == 50
        assert np.array_equal(values[:, 0], result.t)
        assert np.array_equal(values[:, 1:], result.sigma_hat)

    def test_runs_without_scipy(self, config_file, tmp_path):
        # scipy is a test-only dependency: with its import blocked, the
        # whole command surface still runs and loads no scipy module
        out = tmp_path / "out"
        ini = tmp_path / "sim.ini"
        ini.write_text(BASE_CONFIG + f"\n[io]\nmodel_file = {out / 'model.txt'}\n")
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from coupled_do import cli\n"
            f"codes = [cli.main(['verify', '--level', 'fast']),\n"
            f"         cli.main(['learn', '--config', {str(config_file)!r}, '--out', {str(out)!r}]),\n"
            f"         cli.main(['simulate', '--config', {str(ini)!r}, '--out', {str(out)!r},\n"
            "                   '--modes', 'none,ndo,hodo'])]\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.partition('.')[0] == 'scipy' and sys.modules[m] is not None)\n"
            "print(json.dumps({'codes': codes, 'scipy': loaded}))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0, 0], "scipy": []}
        assert len((out / "metrics.csv").read_text().splitlines()) == 4

    def test_only_verify_loads_the_oracles(self):
        # the reference checks are off the start-up path of every command
        # but verify, which imports them when it runs
        script = (
            "import json, sys\n"
            "from coupled_do import cli\n"
            "before = 'coupled_do.oracles' in sys.modules\n"
            "code = cli.main(['verify', '--level', 'fast'])\n"
            "print(json.dumps({'before': before, 'code': code,\n"
            "                  'after': 'coupled_do.oracles' in sys.modules}))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == {
            "before": False, "code": 0, "after": True}

    def test_one_config_learn_simulate_sweep(self, tmp_path, capsys):
        # learn writes the model where simulate reads it, and the fit reports
        # and the sweep grid each have their own file in io.out_dir
        out = tmp_path / "out"
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[io]\nout_dir = {out}\n")
        for command in (["learn"], ["simulate", "--modes", "none,ndo,hodo"], ["sweep"]):
            assert cli.main([command[0], "--config", str(ini)] + command[1:]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "fit_reports.csv", "metrics.csv", "model.txt", "scenario_hodo.csv",
            "scenario_ndo.csv", "scenario_none.csv", "sweep.csv"]
        assert len((out / "metrics.csv").read_text().splitlines()) == 4
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + 3 * 6 * 4

    def test_sweep_writes_and_resumes(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        grid = out / "sweep.csv"
        first = grid.read_text()
        assert first.splitlines()[0] == ",".join(fileio.SWEEP_CSV_COLUMNS)
        assert len(first.splitlines()) == 5      # header + 2 p * 2 sigma
        # rerun: complete grid must be a no-op
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        assert grid.read_text() == first

    def test_sweep_into_an_empty_file(self, config_file, tmp_path, capsys):
        # an empty result file takes the header, as append_csv_row writes it
        out = tmp_path / "out"
        out.mkdir()
        (out / "sweep.csv").write_text("")
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ",".join(fileio.SWEEP_CSV_COLUMNS)
        assert len(lines) == 5

    def test_sweep_resume_computes_no_done_cell(self, config_file, tmp_path, capsys,
                                                monkeypatch):
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        grid = out / "sweep.csv"
        first = grid.read_text()
        computed = []
        run_cell = learner._run_cell

        def counting(*args):
            computed.append(args[1:3])            # (p, noise variance)
            return run_cell(*args)
        monkeypatch.setattr(learner, "_run_cell", counting)
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        assert computed == []
        assert grid.read_text() == first

    def test_sweep_resume_keys_include_the_seed(self, tmp_path, capsys):
        # another seed into the same sweep.csv computes its own cells
        ini = tmp_path / "exp.ini"
        ini.write_text("[learning]\nn_samples = 1000\n"
                       "[sweep]\nfunctions = cubic_drift\np_values = 2\n"
                       "noise_variances = 0.01\n")
        out = tmp_path / "out"
        for seed in ("1", "2", "2"):
            assert cli.main(["sweep", "--config", str(ini), "--out", str(out),
                             "--seed", seed]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3                     # header + one cell per seed
        assert [r.split(",")[3] for r in rows[1:]] == ["1", "2"]
        assert fileio.existing_sweep_keys(out / "sweep.csv") == {
            ("cubic_drift", 2, 0.01, 1), ("cubic_drift", 2, 0.01, 2)}

    def test_sweep_resume_after_grid_grows(self, tmp_path, capsys):
        # a resumed run appends only the new cells; its rows must be those
        # of a fresh run over the grown grid, up to line order
        def write_ini(name, noise):
            ini = tmp_path / name
            ini.write_text("[learning]\nn_samples = 1000\nseed = 5\n"
                           "[sweep]\nfunctions = cubic_drift\np_values = 1, 2\n"
                           f"noise_variances = {noise}\n")
            return ini

        small = write_ini("small.ini", "0.01")
        grown = write_ini("grown.ini", "0.01, 0.05")
        resumed, fresh = tmp_path / "resumed", tmp_path / "fresh"
        assert cli.main(["sweep", "--config", str(small), "--out", str(resumed)]) == 0
        assert cli.main(["sweep", "--config", str(grown), "--out", str(resumed)]) == 0
        assert cli.main(["sweep", "--config", str(grown), "--out", str(fresh)]) == 0
        resumed_rows = (resumed / "sweep.csv").read_text().splitlines()
        fresh_rows = (fresh / "sweep.csv").read_text().splitlines()
        assert len(fresh_rows) == 5               # header + 2 p * 2 sigma
        assert sorted(resumed_rows) == sorted(fresh_rows)

    def test_sweep_repeated_grid_values_are_one_cell(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text("[learning]\nn_samples = 1000\nseed = 5\n"
                       "[sweep]\nfunctions = cubic_drift, cubic_drift\np_values = 2, 2, 1\n"
                       "noise_variances = 0.01, 0, 0.01\n")
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(ini), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            cells = [(r["p"], r["noise_variance"]) for r in csv.DictReader(fh)]
        assert cells == [("1", "0"), ("1", "0.01"), ("2", "0"), ("2", "0.01")]

    def test_sweep_negative_zero_noise_is_the_zero_cell(self, tmp_path, capsys):
        # -0 == 0, so both must draw, write and resume the same cell
        files = []
        for zero in ("-0", "0"):
            ini = tmp_path / f"exp{zero}.ini"
            ini.write_text("[learning]\nn_samples = 1000\nseed = 5\n"
                           "[sweep]\nfunctions = cubic_drift\np_values = 2\n"
                           f"noise_variances = {zero}\n")
            out = tmp_path / f"out{zero}"
            assert cli.main(["sweep", "--config", str(ini), "--out", str(out)]) == 0
            files.append((out / "sweep.csv").read_bytes())
        assert files[0] == files[1]
        assert files[1].splitlines()[1].split(b",")[2] == b"0"

    def test_single_cell_sweep_matches_learn_protocol(self, tmp_path, capsys):
        # same seed and same cell-stream derivation: the sweep's first
        # cell is reproducible across invocations
        ini = tmp_path / "exp.ini"
        ini.write_text("[learning]\nn_samples = 1000\nseed = 5\n"
                       "[sweep]\nfunctions = cubic_drift\np_values = 3\n"
                       "noise_variances = 0\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["sweep", "--config", str(ini), "--out", str(out1)]) == 0
        assert cli.main(["sweep", "--config", str(ini), "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_text() == (out2 / "sweep.csv").read_text()

    def test_learn_noisy_flag(self, config_file, tmp_path, capsys):
        # learning.noise_variance alone corrupts the synthesized targets
        ini = tmp_path / "noisy.ini"
        ini.write_text(BASE_CONFIG.replace("seed = 11", "seed = 11\nnoise_variance = 0.25", 1))
        for name, config in (("clean", config_file), ("noisy", ini)):
            assert cli.main(["learn", "--config", str(config), "--out", str(tmp_path / name)]) == 0
        report = (tmp_path / "noisy" / "fit_reports.csv").read_text().splitlines()
        assert report[0] == ",".join(fileio.REPORT_CSV_COLUMNS)
        clean, noisy = (fileio.load_model(tmp_path / name / "model.txt").theta
                        for name in ("clean", "noisy"))
        assert not np.array_equal(clean, noisy)

    def test_fit_report_records_applied_noise_variance(self, tmp_path, capsys):
        # a dataset file's targets are not corrupted, so its row records 0
        data = tmp_path / "data.csv"
        fileio.save_dataset(data, generate_training_run("quad_drag_drift", 500, seed=3))
        noisy = BASE_CONFIG.replace("seed = 11", "seed = 11\nnoise_variance = 0.25", 1)
        out = tmp_path / "out"
        for name, text in (("synth", noisy), ("dataset", noisy + f"\n[io]\ndataset_file = {data}\n")):
            ini = tmp_path / f"{name}.ini"
            ini.write_text(text)
            assert cli.main(["learn", "--config", str(ini), "--out", str(out)]) == 0
        with open(out / "fit_reports.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["noise_variance"] for r in rows] == ["0.25", "0"]

    def test_learn_does_not_run_the_projection_oracle(self, tmp_path, capsys, monkeypatch):
        def oracle(*args):
            raise AssertionError("projection_oracle called")
        monkeypatch.setattr(oracles, "projection_oracle", oracle)
        ini = tmp_path / "raw.ini"
        ini.write_text("[learning]\nn_samples = 1000\n")    # raw quad_drag_drift basis
        assert cli.main(["learn", "--config", str(ini), "--out", str(tmp_path / "o")]) == 0
        assert "projection oracle" not in capsys.readouterr().out

    @pytest.mark.parametrize("command, name", [("learn", "fit_reports.csv"),
                                               ("simulate", "metrics.csv"),
                                               ("sweep", "sweep.csv")])
    def test_result_file_with_another_header_is_3(self, config_file, tmp_path, capsys,
                                                  command, name):
        # an older column set, as fit_reports.csv had with theta_error
        columns = {"fit_reports.csv": fileio.REPORT_CSV_COLUMNS + ["theta_error"],
                   "metrics.csv": fileio.METRICS_CSV_COLUMNS[:-1],
                   "sweep.csv": fileio.SWEEP_CSV_COLUMNS[:-1]}[name]
        out = tmp_path / "o"
        out.mkdir()
        old = ",".join(columns) + "\n" + ",".join(["0"] * len(columns)) + "\n"
        (out / name).write_text(old)
        (out / "model.txt").write_text("an earlier model\n")
        modes = ["--modes", "none"] if command == "simulate" else []
        assert cli.main([command, "--config", str(config_file), "--out", str(out)] + modes) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {out / name}: columns ")
        assert (out / name).read_text() == old
        # a refused command writes no output at all
        assert (out / "model.txt").read_text() == "an earlier model\n"
        assert not list(out.glob("scenario_*.csv"))

    def test_learn_draws_from_the_configured_box(self, tmp_path, capsys, monkeypatch):
        drawn = []

        def recording(*args, **kwargs):
            drawn.append(generate_training_run(*args, **kwargs))
            return drawn[-1]
        monkeypatch.setattr(cli, "generate_training_run", recording)
        digests = []
        for name, box in (("registered", ""), ("configured", "x_box = -1, 1\n")):
            ini = tmp_path / f"{name}.ini"
            ini.write_text(f"[basis]\nnormalize = true\n{box}"
                           "[learning]\nfunction = cubic_drift\nn_samples = 500\n")
            assert cli.main(["learn", "--config", str(ini), "--out", str(tmp_path / name)]) == 0
            text = (tmp_path / name / "model.txt").read_text()
            digests.append(text.split("dataset_digest = ")[1].split("\n")[0])
        # the registered box (-2, 2) keeps the stream and bytes of a config without x_box
        assert digests[0] == "sha256:0bf4343855c54572"
        assert digests[1] != digests[0]
        assert np.abs(drawn[0].x).max() > 1.0
        assert np.abs(drawn[1].x).max() <= 1.0

    def test_learn_peak_memory_on_a_long_trajectory(self, tmp_path, capsys, traced_peak):
        # the full dataset and the loaded array go before the fit, and the fit
        # holds one design at a time
        n = 100_000
        t = np.arange(n) * 1e-3
        v = 7.0 * np.sin(0.5 * t)
        u = 3.5 * np.cos(0.5 * t) - disturbance("quad_drag_drift")(v, t)
        fileio.save_dataset(tmp_path / "traj.csv", TrajectoryDataset(t=t, x=v, u=u))
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[io]\ndataset_file = {tmp_path / 'traj.csv'}\n")
        code, peak = traced_peak(lambda: cli.main(["learn", "--config", str(ini),
                                                   "--out", str(tmp_path / "o")]))
        assert code == 0
        assert peak < 5 * n * 3 * 8

    def test_seed_override_changes_output(self, config_file, tmp_path):
        out1, out2, out3 = (tmp_path / n for n in ("s1", "s2", "s3"))
        cli.main(["learn", "--config", str(config_file), "--out", str(out1), "--seed", "1"])
        cli.main(["learn", "--config", str(config_file), "--out", str(out2), "--seed", "2"])
        cli.main(["learn", "--config", str(config_file), "--out", str(out3), "--seed", "1"])
        r1 = (out1 / "fit_reports.csv").read_text()
        r2 = (out2 / "fit_reports.csv").read_text()
        r3 = (out3 / "fit_reports.csv").read_text()
        assert r1 != r2
        assert r1 == r3
