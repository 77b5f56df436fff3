"""File formats, configuration handling, and the command-line surface."""

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coupled_do import cli, csvblocks, fileio, learner, oracles
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
                                 x=rng.standard_normal((20, 1)),
                                 u=rng.standard_normal((20, 1)),
                                 delta=rng.standard_normal((20, 1)))
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


BLOCK = fileio._BLOCK_CELLS // 7        # rows per block of a scenario file
# no row, one, whole blocks, and whole blocks and one row more
ROWS = [0, 1, 4 * BLOCK, 4 * BLOCK + 1]


class TestSeriesWriters:
    """The block writers give the bytes of csv.writer with fmt per value."""

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("with_delta", [False, True])
    def test_dataset_bytes(self, tmp_path, rows, with_delta):
        rng = np.random.default_rng(rows)
        data = TrajectoryDataset(t=np.zeros(rows), x=np.zeros((rows, 1)),
                                 u=np.zeros((rows, 1)),
                                 delta=np.zeros((rows, 1)) if with_delta else None)
        # the container rejects non-finite values; the writer must not care
        data.t[:] = _special_values(rng, rows)
        data.x[:] = _special_values(rng, (rows, 1))
        data.u[:] = _special_values(rng, (rows, 1))
        columns = [data.t, data.x, data.u]
        if with_delta:
            data.delta[:] = _special_values(rng, (rows, 1))
            columns.append(data.delta)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x_1", "u_1"] + ["delta_1"] * with_delta)
            writer.writerows(_fmt_rows_reference(columns))
        path = tmp_path / "data.csv"
        fileio.save_dataset(path, data)
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_bytes().count(b"\r\n") == rows + 1

    @pytest.mark.parametrize("rows", ROWS)
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

    @pytest.mark.parametrize("rows", ROWS)
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

    @pytest.mark.parametrize("width", [3, 4])
    def test_narrow_dataset_bytes(self, tmp_path, width):
        # a block holds ceil(_BLOCK_CELLS / width) rows: two blocks and one row more
        rows = 2 * -(-fileio._BLOCK_CELLS // width) + 1
        rng = np.random.default_rng(width)
        with_delta = width == 4
        data = TrajectoryDataset(t=np.zeros(rows), x=np.zeros((rows, 1)), u=np.zeros((rows, 1)),
                                 delta=np.zeros((rows, 1)) if with_delta else None)
        columns = [data.t, data.x, data.u] + ([data.delta] if with_delta else [])
        for column in columns:
            column[:] = _special_values(rng, column.shape)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x_1", "u_1"] + ["delta_1"] * with_delta)
            writer.writerows(_fmt_rows_reference(columns))
        path = tmp_path / "data.csv"
        fileio.save_dataset(path, data)
        assert path.read_bytes() == ref.read_bytes()

    def test_written_dataset_loads_bit_exactly(self, tmp_path):
        rng = np.random.default_rng(8)
        n = BLOCK + 1

        def finite(shape):
            vals = _special_values(rng, shape)
            return np.where(np.isfinite(vals), vals, 1.0)
        data = TrajectoryDataset(t=finite(n), x=finite((n, 1)), u=finite((n, 1)),
                                 delta=finite((n, 1)))
        path = tmp_path / "data.csv"
        fileio.save_dataset(path, data)
        loaded = fileio.load_dataset(path)
        for name in ("t", "x", "u", "delta"):
            assert np.array_equal(getattr(loaded, name), getattr(data, name))


def _block_cells(values, width=1):
    """The cells that the series writer's block formatter writes for
    ``values``, ``width`` to a row (the last row filled up with zeros)."""
    values = np.asarray(values, dtype=float)
    rows = np.concatenate([values, np.zeros(-len(values) % width)]).reshape(-1, width)
    text = csvblocks.BlockFormatter(len(rows), width, b"\n")([rows]).decode()
    return text.replace("\n", ",").split(",")[:len(values)]


def _ties():
    """Floats exactly halfway between two 17-digit decimals, both signs.
    x = K 2**(X-17) with K odd is one when K 5**(16-X) = 2M + 1 for a
    17-digit M; float64 holds such a K for X <= 14."""
    ties = []
    for exponent in range(-4, 15):
        five = 5 ** (16 - exponent)
        low, high = -(-2 * 10**16 // five), min(2 * 10**17 // five, 2**53)
        for k in (low, (low + high) // 2, high - 2):
            x = math.ldexp(k | 1, exponent - 17)
            assert (Fraction(x) * Fraction(10) ** (16 - exponent)).denominator == 2
            assert 10.0**exponent <= x < 10.0 ** (exponent + 1)
            ties += [x, -x]
    return ties


def _adversarial_values():
    """Each 10**k for k = -6..18 with both neighbours, the ties, the edges
    of the fixed-point range (decimal exponents -5/-4 and 16/17), both
    zeros, the smallest subnormal and a NaN with a payload."""
    powers = np.array([float(f"1e{k}") for k in range(-6, 19)])
    near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    edges = [0.0001, 9.9999999999999991e-05, 0.00010000000000000002, 1e16 - 2, 1e16 + 2,
             99999999999999984.0, 1e17 + 16, 0.5, 2.5, 1 / 3, 0.1 + 0.2]
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                np.inf, -np.inf, np.nan,
                np.array(0x7FF8000000000001, dtype=np.uint64).view(float),
                np.array(0xFFF0000000000002, dtype=np.uint64).view(float)]
    return np.concatenate([near, -near, edges, np.negative(edges), _ties(), specials])


# raw 64-bit patterns: any, and those whose binary exponent puts them in or
# next to the fixed-point range, which a uniform draw rarely reaches
_RAW_BITS = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
              st.integers(0, 1), st.integers(1023 - 16, 1023 + 57), st.integers(0, 2**52 - 1)))


class TestBlockFormatter:
    """Each cell has the bytes of fileio.fmt, that is of format(x, ".17g")."""

    @pytest.mark.parametrize("width", [1, 3])
    def test_adversarial_table(self, width):
        values = _adversarial_values()
        assert _block_cells(values, width) == [fileio.fmt(v) for v in values]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_floats(self, values):
        assert _block_cells(values) == [fileio.fmt(v) for v in values]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_RAW_BITS, min_size=1, max_size=40))
    def test_raw_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert _block_cells(values) == [fileio.fmt(v) for v in values]

    def test_scenario_write_peak_memory(self, tmp_path, traced_peak):
        # the row-template writer that the block formatter replaced peaked at
        # 0.49 MB on this file; a larger block or workspace would show here
        # before it raised the benchmark's peak RSS
        result = run_scenario(ScenarioConfig(mode="none", duration=20, seed=1))
        assert len(result.t) >= 20000
        _, peak = traced_peak(lambda: fileio.save_scenario(tmp_path / "s.csv", result))
        assert peak <= 490_000


def _parsed(cells, width=1, eol=b"\n"):
    """What the dataset parser gives ``cells`` (bytes), ``width`` to a record
    (the last filled up with zeros): float64 values, or None for a refusal."""
    filled = list(cells) + [b"0"] * (-len(cells) % width)
    body = b"".join(b",".join(filled[i:i + width]) + eol for i in range(0, len(filled), width))
    area = bytearray(b"0" * csvblocks.WINDOW + body)
    values = csvblocks.BlockParser(width, eol)(area, len(area))
    return None if values is None else values.reshape(-1)[:len(cells)]


def _assert_float_bits(cells, width=1, eol=b"\n"):
    """The parser gives each cell the bits of float(), or refuses the block
    when float() refuses a cell."""
    try:
        expected = np.array([float(c) for c in cells])
    except ValueError:
        assert _parsed(cells, width, eol) is None
        return
    values = _parsed(cells, width, eol)
    assert values is not None
    assert values.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), cells


# cells that float() reads, each with a reason to be here
_PARSER_TABLE = [
    # exact ties, rounded to even, and their neighbours
    "9007199254740993", "9007199254740995", "18014398509481986", "18014398509481990",
    "4503599627370496.5", "4503599627370497.5", "1125899906842624.125",
    "4503599627370496.49", "4503599627370496.51", "9007199254740993.0",
    "1152921504606847104", "1152921504606847105",
    # 17 to 19 digits, and 20 (more than a word of the mantissa holds)
    "12345678901234567", "123456789012345678", "1234567890123456789",
    "9999999999999999999", "0.9999999999999999999", "-9.999999999999999999",
    "0.30000000000000004", "99999999999999984", "12345678901234567890",
    # 0, 22 and 23 fraction digits; 24 and 25 bytes
    "5", "0.0000000000000000000001", ".00000000000000000000001",
    "1.0000000000000000000001", "-0.0000000000000000000001", "0.00000000000000000000012",
    "50000.0000000000000000001", "-50000.000000000000000001",
    "-123456789.12345678901234",
    # signs, points and zeros
    "0", "-0", "-0.0", "0.0", "5.", ".5", "-.5", "-5.", "00012.500", "-000",
    # what only float() reads
    "1e+16", "5e-324", "-2.2250738585072014e-308", "1.7976931348623157e308", "1E5",
    "9.4496312638544e-05", "inf", "-inf", "nan", "-nan", "Infinity", "+5", "+.5", "1_000",
]
# cells that float() refuses, and so refuse their block
_PARSER_REFUSED = ["", ".", "-", "-.", "--1", "1-2", "1.2.3", "0x10", "abc", "1e", "\xff1"]


def _decimal_cells():
    """Random digit strings with a sign and a point."""
    digits = st.text("0123456789", max_size=24)
    return st.builds(lambda sign, whole, point, frac: (sign + whole + point + frac).encode(),
                     st.sampled_from(["", "-"]), digits, st.sampled_from(["", "."]), digits)


class TestBlockParser:
    """Each cell gets the bits that float() gives it."""

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_adversarial_table(self, width, eol):
        _assert_float_bits([c.encode() for c in _PARSER_TABLE], width, eol)

    def test_cells_at_or_near_a_midpoint_go_through_float(self, monkeypatch):
        # decimals within 2**-22 units in the last place of a midpoint
        # between two floats, and midpoints, which the quotient cannot settle
        near = [b"0.06719898700237941086", b"2.364140654401549968", b"646014.6131449174718",
                b"-5243.012135950238644", b"9007199254740993", b"4503599627370496.5"]
        plain = [b"0.30000000000000004", b"-45.36023736234132", b"1234567890123456.7"]
        seen = []

        def spy(cell):
            if isinstance(cell, bytearray):
                seen.append(bytes(cell))
            return float(cell)
        monkeypatch.setattr(csvblocks, "float", spy, raising=False)
        _assert_float_bits(near + plain)
        assert seen == near

    @pytest.mark.parametrize("body, eol, rows", [
        (b"1,2,3\n\n4,5,6\n\n", b"\n", [[1, 2, 3], [4, 5, 6]]),
        (b"\r\n1,2,3\r\n\r\n\r\n4,5,6\r\n", b"\r\n", [[1, 2, 3], [4, 5, 6]]),
        (b"\n\n", b"\n", []),
        # an empty first or last cell, a stray CR, a space or a bare LF is no
        # blank line, and none of them leaves the record's cells to the next
        (b"1,2,\n3\n", b"\n", None), (b",2,3,4\n", b"\n", None),
        (b"\r5,6,7,8\r\n", b"\r\n", None), (b"\r,5,6,7\r\n", b"\r\n", None),
        (b"\r9\n1,2,3\r\n", b"\r\n", None), (b"1,2,3\n5\n4,5,6\n", b"\n", None),
        (b"1,2,3\n \n", b"\n", None), (b"1,2,3\r\n\n4,5,6\r\n", b"\r\n", None),
        (b"\r1,2,3\r\r4,5,6\r", b"\r", [[1, 2, 3], [4, 5, 6]]),
        (b"1,2,3\r\n4,5,6\r", b"\r", None)],
        ids=["lf", "crlf", "only-blank", "empty-last", "empty-first", "stray-cr",
             "stray-cr-comma", "stray-cr-cell", "one-cell", "space", "bare-lf", "cr",
             "lf-in-cr"])
    def test_blank_lines_carry_no_record(self, body, eol, rows):
        area = bytearray(b"0" * csvblocks.WINDOW + body)
        values = csvblocks.BlockParser(3, eol)(area, len(area))
        assert (None if values is None else values.tolist()) == rows

    @pytest.mark.parametrize("cell", _PARSER_REFUSED)
    def test_refused_cells(self, cell):
        _assert_float_bits([b"1.5", cell.encode("latin-1"), b"2"], 3)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_written_floats(self, values):
        _assert_float_bits([repr(v).encode() for v in values]
                           + [fileio.fmt(v).encode() for v in values], 2)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_RAW_BITS, min_size=1, max_size=40))
    def test_raw_bit_patterns(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64).tolist()
        _assert_float_bits([repr(v).encode() for v in values]
                           + [fileio.fmt(v).encode() for v in values], 2, b"\r\n")

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_decimal_cells(), min_size=1, max_size=40))
    def test_digit_strings(self, cells):
        _assert_float_bits(cells)


def _trajectory_rows(n, seed):
    """Rows of a (t, x_1, u_1) trajectory as csv.writer writes Python floats,
    a few cells small enough for an exponent."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * 1e-3
    v = 7.0 * np.sin(0.37 * t + rng.uniform(0, 6))
    u = rng.standard_normal(n) * 40.0
    u[rng.integers(0, n, 5)] *= 1e-6
    return [[a, b, c] for a, b, c in zip(t.tolist(), v.tolist(), u.tolist())]


def _write_csv(path, rows, lineterminator="\r\n", last=True):
    text = io.StringIO()
    csv.writer(text, lineterminator=lineterminator).writerows([["t", "x_1", "u_1"], *rows])
    data = text.getvalue().encode()
    path.write_bytes(data if last else data[:-len(lineterminator)])


def _loaded(path):
    data = fileio.load_dataset(path)
    return np.column_stack([data.t, data.x, data.u])


class TestDatasetBlocks:
    """load_dataset reads a file in blocks with float()'s bits per cell."""

    @pytest.fixture
    def blocks_only(self, monkeypatch):
        def refused(path, width):
            raise AssertionError(f"the block parser refused {path}")
        monkeypatch.setattr(fileio, "_parse_dataset_rows", refused)

    @pytest.mark.parametrize("chunk", [80, 128, 1000, 1 << 18])
    @pytest.mark.parametrize("eol, last", [("\n", True), ("\r\n", True), ("\n", False),
                                           ("\r\n", False)])
    def test_records_across_block_cuts(self, tmp_path, monkeypatch, blocks_only, chunk, eol,
                                       last):
        # a block of 80 bytes holds one or two records of up to 65
        monkeypatch.setattr(csvblocks, "CHUNK_BYTES", chunk)
        rows = _trajectory_rows(300, 1)
        path = tmp_path / "traj.csv"
        _write_csv(path, rows, eol, last)
        assert _loaded(path).tolist() == rows

    def test_blank_lines(self, tmp_path, blocks_only):
        rows = _trajectory_rows(40, 6)
        path = tmp_path / "traj.csv"
        _write_csv(path, rows)
        lines = path.read_bytes().split(b"\r\n")
        path.write_bytes(b"\r\n".join(lines[:1] + [b""] + lines[1:20] + [b"", b""] + lines[20:])
                         + b"\r\n")
        assert _loaded(path).tolist() == rows

    def test_record_longer_than_a_block_goes_to_the_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setattr(csvblocks, "CHUNK_BYTES", 16)
        rows = _trajectory_rows(50, 2)
        path = tmp_path / "traj.csv"
        _write_csv(path, rows)
        assert _loaded(path).tolist() == rows

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    def test_line_ends(self, tmp_path, blocks_only, eol):
        rows = _trajectory_rows(40, 3)
        path = tmp_path / "traj.csv"
        _write_csv(path, rows, eol)
        assert _loaded(path).tolist() == rows

    def test_straddling_record_of_a_long_file(self, tmp_path, blocks_only):
        rows = _trajectory_rows(20_000, 4)
        path = tmp_path / "traj.csv"
        _write_csv(path, rows)
        assert path.stat().st_size > 2 * csvblocks.CHUNK_BYTES
        assert _loaded(path).tolist() == rows

    def test_benchmark_style_file_matches_loadtxt(self, tmp_path, blocks_only):
        # numpy's reader as the oracle, on a file written as the benchmark writes it
        path = tmp_path / "traj.csv"
        _write_csv(path, _trajectory_rows(20_000, 5))
        expected = np.loadtxt(path, delimiter=",", skiprows=1)
        assert _loaded(path).view(np.uint64).tolist() == expected.view(np.uint64).tolist()


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
        ("\nn = 1\n", "\nn = 2\n", "basis.n: the basis spans one state channel, n = 1, got 2"),
    ], ids=["version", "missing_field", "malformed_number", "theta_size", "normalize",
            "not_key_value", "two_states"])
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
        # a two-state file in the model format: two box pairs, 2 x 27 theta
        theta = np.random.default_rng(6).standard_normal((2, 27))
        model = tmp_path / "model.txt"
        model.write_text(
            "format_version = 1\np = 2\nn = 2\nfeature_dim = 1\nnormalize = false\n"
            "x_box = -10,10; -10,10\nt_box = 0,100\nseed = \nridge_delta = \n"
            "dataset_digest = \ntheta_rows = 2\ntheta_cols = 27\ntheta =\n"
            + "".join("  " + " ".join(map(fileio.fmt, row)) + "\n" for row in theta))
        ini = tmp_path / "sim.ini"
        ini.write_text(BASE_CONFIG + f"\n[io]\nmodel_file = {model}\n")
        assert cli.main(["simulate", "--config", str(ini), "--out", str(tmp_path / "o"),
                         "--modes", "none,hodo"]) == 3
        assert capsys.readouterr().err == (f"data error: model file {model}: basis.n: the "
                                           "basis spans one state channel, n = 1, got 2\n")
        assert sorted(tmp_path.iterdir()) == [model, ini]

    @pytest.mark.parametrize("header", ["t,x_1,u_1,u_2", "t,x_1,x_2,u_1",
                                        "t,x_1,x_2,u_1,delta_1,delta_2"],
                             ids=["two_inputs", "two_states", "two_states_with_targets"])
    def test_learn_refuses_other_channel_counts_at_the_header(self, tmp_path, capsys, header):
        # a second input would be added into the force, a second state has no basis
        columns = header.split(",")
        t = np.arange(200) * 1e-2
        with open(tmp_path / "traj.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([columns] + [[ti] + [np.sin(ti + j) for j in range(
                1, len(columns))] for ti in t])
        out = tmp_path / "o"
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[io]\nout_dir = {out}\ndataset_file = {tmp_path / 'traj.csv'}\n")
        assert cli.main(["learn", "--config", str(ini)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: dataset columns {columns} do not match schema")
        assert not out.exists()

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

    @pytest.mark.parametrize("command, name, code", [
        ("learn", "exp.ini", 2), ("learn", "data.csv", 3), ("learn", "long.csv", 3),
        ("learn", "fit_reports.csv", 3), ("simulate", "metrics.csv", 3),
        ("sweep", "sweep.csv", 3)])
    def test_non_utf8_input_is_one_line_naming_the_file(self, tmp_path, capsys, command, name,
                                                        code):
        # 0xff starts no UTF-8 sequence; long.csv holds it past the first
        # block, where the per-line parser meets it
        out = tmp_path / "o"
        out.mkdir()
        rows = b"".join(b"%d,0.5,1.25\n" % i for i in range(20_000 if name == "long.csv" else 3))
        bad = {"exp.ini": b"# \xff\n", "sweep.csv": b"cubic_drift,1,0,11,0.5,ok\xff\n",
               "data.csv": b"0,\xff,0\n", "long.csv": b"1e9,\xff,0\n"}.get(name, b"\xff\n")
        header = {"fit_reports.csv": ",".join(fileio.REPORT_CSV_COLUMNS),
                  "metrics.csv": ",".join(fileio.METRICS_CSV_COLUMNS),
                  "sweep.csv": ",".join(fileio.SWEEP_CSV_COLUMNS)}.get(name, "t,x_1,u_1")
        path = tmp_path / name if name.endswith((".ini", "data.csv", "long.csv")) else out / name
        ini = tmp_path / "exp.ini"
        dataset = f"\n[io]\ndataset_file = {path}\n" if "data" in name or "long" in name else ""
        ini.write_bytes((BASE_CONFIG + dataset).encode() + (bad if name == "exp.ini" else b""))
        if name != "exp.ini":
            path.write_bytes(header.encode() + b"\n" + rows + bad)
        before = sorted(out.iterdir())
        modes = ["--modes", "none"] if command == "simulate" else []
        assert cli.main([command, "--config", str(ini), "--out", str(out)] + modes) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(path) in err and "utf-8" in err, err
        assert sorted(out.iterdir()) == before

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

    @pytest.mark.parametrize("error", [BrokenPipeError(32, "Broken pipe"),
                                       OSError(28, "No space left on device")],
                             ids=["closed", "full"])
    def test_failed_stdout_is_one_stderr_line_and_5(self, config_file, tmp_path, capsys,
                                                    monkeypatch, error):
        class FailingStdout:
            def write(self, text):
                raise error

            def flush(self):
                raise error

        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", FailingStdout())
            code = cli.main(["learn", "--config", str(config_file), "--out", str(out)])
        assert code == 5
        assert capsys.readouterr().err == f"output error: stdout: {error}\n"
        # the report line comes after the results, which stay written
        assert (out / "model.txt").exists()
        assert len((out / "fit_reports.csv").read_text().splitlines()) == 2

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("stream", ["closed", "full"])
    def test_failed_stdout_of_the_process(self, stream):
        # the real streams: a pipe closed before the first line, and a full
        # device; Python's exit-time flush must not add a second message
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "coupled_do.cli", "verify", "--level", "fast"]
        if stream == "full":
            with open("/dev/full", "w") as full:
                proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                                      env=env, timeout=300)
            code, err = proc.returncode, proc.stderr
        else:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, env=env)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=300)
            proc.stderr.close()
        errno = {"closed": "[Errno 32] Broken pipe",
                 "full": "[Errno 28] No space left on device"}[stream]
        assert (code, err) == (5, f"output error: stdout: {errno}\n")


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

    def test_modes_of_one_run_write_the_bytes_of_each_mode_alone(self, config_file, tmp_path,
                                                                 capsys):
        # the modes share their formatted t and eta_d cells (three blocks, the
        # last one short), and each file keeps the bytes of its own run
        together, alone = tmp_path / "together", tmp_path / "alone"
        assert cli.main(["learn", "--config", str(config_file), "--out", str(together)]) == 0
        ini = tmp_path / "sim.ini"
        ini.write_text(BASE_CONFIG.replace("duration = 0.5", "duration = 2.5")
                       + f"\n[io]\nmodel_file = {together / 'model.txt'}\n")
        assert cli.main(["simulate", "--config", str(ini), "--out", str(together),
                         "--modes", "none,ndo,hodo"]) == 0
        for mode in ("none", "ndo", "hodo"):
            assert cli.main(["simulate", "--config", str(ini), "--out", str(alone),
                             "--modes", mode]) == 0
            digests = [hashlib.sha256((d / f"scenario_{mode}.csv").read_bytes()).hexdigest()
                       for d in (together, alone)]
            assert digests[0] == digests[1]
        lines = (alone / "scenario_hodo.csv").read_bytes().count(b"\r\n")
        assert lines == 2501 and lines > 2 * BLOCK + 1

    def test_one_mode_result_alive_at_a_time(self, config_file, tmp_path, capsys, monkeypatch,
                                             traced_peak):
        out = tmp_path / "out"
        assert cli.main(["learn", "--config", str(config_file), "--out", str(out)]) == 0
        ini = tmp_path / "sim.ini"
        ini.write_text(BASE_CONFIG.replace("duration = 0.5", "duration = 1")
                       + f"\n[io]\nmodel_file = {out / 'model.txt'}\n")
        # each run meets no result of an earlier mode
        results = []

        def run(cfg):
            assert [ref() for ref in results] == [None] * len(results)
            result = run_scenario(cfg)
            results.append(weakref.ref(result))
            return result
        monkeypatch.setattr(cli, "run_scenario", run)
        argv = ["simulate", "--config", str(ini), "--out", str(out), "--modes"]
        assert cli.main(argv + ["hodo"]) == 0        # the observer's kernels are built once
        peaks = {}
        for modes in ("none,ndo", "none,ndo,hodo"):
            results.clear()
            code, peaks[modes] = traced_peak(lambda: cli.main(argv + [modes]))
            assert code == 0
        assert peaks["none,ndo,hodo"] < 1.05 * peaks["none,ndo"]

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
        factor = learner._factor

        def counting(*args):
            computed.append(args[2].p)            # the basis of the factored design
            return factor(*args)
        monkeypatch.setattr(learner, "_factor", counting)
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        assert computed == []
        assert grid.read_text() == first

    def test_sweep_partly_resumed_ends_as_one_shot(self, tmp_path, capsys):
        # functions that share a box share a fit, but each resumes its own
        # missing orders: the rows equal a one-shot run's, up to line order
        ini = tmp_path / "exp.ini"
        ini.write_text("[learning]\nn_samples = 1000\nseed = 5\n"
                       "[sweep]\nfunctions = sine_product, cubic_drift, sine_cubic\n"
                       "p_values = 1, 2, 3\nnoise_variances = 0, 0.05\n")
        fresh, resumed = tmp_path / "fresh", tmp_path / "resumed"
        assert cli.main(["sweep", "--config", str(ini), "--out", str(fresh)]) == 0
        rows = (fresh / "sweep.csv").read_text().splitlines(keepends=True)
        missing = {("cubic_drift", "1", 0.0), ("cubic_drift", "3", 0.05),
                   ("sine_cubic", "2", 0.0), ("sine_cubic", "2", 0.05),
                   ("sine_product", "3", 0.0)}
        kept = rows[:1] + [r for r in rows[1:]
                           if (*r.split(",")[:2], float(r.split(",")[2])) not in missing]
        assert len(kept) == len(rows) - len(missing)
        resumed.mkdir()
        (resumed / "sweep.csv").write_text("".join(kept))
        assert cli.main(["sweep", "--config", str(ini), "--out", str(resumed)]) == 0
        assert f": {len(missing)} new rows (resume" in capsys.readouterr().out
        assert sorted((resumed / "sweep.csv").read_text().splitlines()) == sorted(
            r.rstrip("\r\n") for r in rows)

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

    def test_sweep_appends_its_rows_after_one_header_check(self, config_file, tmp_path,
                                                           capsys, monkeypatch):
        # one check reads the resume keys, one opens the file for all new rows
        checks = []
        check = fileio.check_csv_header
        monkeypatch.setattr(fileio, "check_csv_header",
                            lambda *args: checks.append(args) or check(*args))
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(config_file), "--out", str(out)]) == 0
        assert len(checks) == 2
        assert len((out / "sweep.csv").read_text().splitlines()) == 5
        fileio.append_csv_rows(tmp_path / "none.csv", fileio.SWEEP_CSV_COLUMNS, [])
        assert not (tmp_path / "none.csv").exists()

    def test_sweep_resume_note_needs_a_done_cell_of_this_grid(self, tmp_path, capsys):
        # a p_values = 1 sweep leaves rows that a p_values = 2 sweep into the
        # same file does not hold as done, and a hand-edited noise_variance =
        # nan row is the key of no cell: both runs compute their whole grid
        def sweep(p_values, out):
            ini = tmp_path / "exp.ini"
            ini.write_text("[learning]\nn_samples = 1000\nseed = 1\n"
                           f"[sweep]\nfunctions = cubic_drift\np_values = {p_values}\n"
                           "noise_variances = 0.01\n")
            assert cli.main(["sweep", "--config", str(ini), "--out", str(out)]) == 0
            return capsys.readouterr().out

        other = tmp_path / "other"
        sweep("1", other)
        assert sweep("2", other).endswith(": 1 new rows\n")
        nan = tmp_path / "nan"
        nan.mkdir()
        (nan / "sweep.csv").write_text(",".join(fileio.SWEEP_CSV_COLUMNS) + "\r\n"
                                       "cubic_drift,1,nan,1,0.25,ok\r\n")
        assert sweep("1", nan).endswith(": 1 new rows\n")
        assert sweep("1, 2", nan).endswith(": 1 new rows (resume: existing cells skipped)\n")

    @pytest.mark.parametrize("bad_row, message", [
        ("cubic_drift,abc,0.01,1,0.5,ok", "invalid literal for int()"),
        ("cubic_drift,2,0.01", "3 fields, header has 6"),
    ])
    def test_malformed_sweep_row_is_3_before_any_fit(self, tmp_path, capsys, monkeypatch,
                                                     bad_row, message):
        ini = tmp_path / "exp.ini"
        ini.write_text("[learning]\nn_samples = 1000\nseed = 1\n"
                       "[sweep]\nfunctions = cubic_drift\np_values = 1, 2\n"
                       "noise_variances = 0.01\n")
        out = tmp_path / "out"
        out.mkdir()
        grid = out / "sweep.csv"
        grid.write_text(",".join(fileio.SWEEP_CSV_COLUMNS) + "\r\n"
                        "cubic_drift,1,0.01,1,0.25,ok\r\n" + bad_row + "\r\n")
        before = grid.read_bytes()

        def no_fit(*args):
            raise AssertionError("fitted before the resume keys were read")
        monkeypatch.setattr(learner, "_factor", no_fit)
        assert cli.main(["sweep", "--config", str(ini), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {grid}, line 3: ")
        assert message in err and "Traceback" not in err
        assert grid.read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["sweep.csv"]

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
