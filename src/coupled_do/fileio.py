"""File formats: model files, dataset and result CSVs, and INI configs.

:func:`load_config` reads an INI experiment file, applies the defaults
and validates every field once; it returns the typed dict that the
commands use, and each violation names its ``section.field``.

All numeric fields are serialized with 17 significant digits so that a
load of a save reproduces every value bit-exactly.  CSV files are plain
RFC-4180 with a header row; the column sets below are versioned and
covered by golden-file tests.

The series writers (dataset, scenario, sigma) format one ``%.17g`` row
template over blocks of ``_BLOCK_ROWS`` rows at a time, which gives the
bytes of ``csv.writer`` with :func:`fmt` per value at a bounded memory
cost.  :func:`load_dataset` parses with :func:`numpy.loadtxt` and falls
back to a per-line ``csv`` parser when ``loadtxt`` rejects the file or
reads a width other than the header's.  The fallback also accepts the
quoted and underscored numbers that ``loadtxt`` rejects, and it names
the file line of a bad record.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import math
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .basis import BasisConfig
from .errors import ConfigError, DataError
from .learner import FitReport, SeparatedModel, TrajectoryDataset
from .sim import ScenarioResult, registered_disturbances

MODEL_FORMAT_VERSION = 1
DATASET_CSV_VERSION = 1
SCENARIO_CSV_VERSION = 1

SCENARIO_CSV_COLUMNS = ["t", "eta", "eta_d", "v", "u", "delta_true", "delta_hat", "mode"]
REPORT_CSV_COLUMNS = ["function", "p", "noise_variance", "delta", "seed", "n_train",
                      "n_test", "train_mae", "test_mae", "gram_condition",
                      "residual_sup", "theta_error"]
SWEEP_CSV_COLUMNS = ["function", "p", "noise_variance", "seed", "test_mae", "status"]
METRICS_CSV_COLUMNS = ["mode", "seed", "tracking_mae", "estimation_mae",
                       "estimation_tail_mae", "decay_slope", "gain_failures"]


# rows per formatted string in the series writers
_BLOCK_ROWS = 1024


def fmt(value: float) -> str:
    """Decimal form that round-trips float64 exactly."""
    return format(float(value), ".17g")


def _write_float_rows(fh, columns, tail: str) -> None:
    """Write the rows of side-by-side float columns, each cell as
    :func:`fmt` gives it, comma-separated and followed by ``tail``.

    ``columns`` holds arrays of shape (N,) or (N, k).  Each block of
    ``_BLOCK_ROWS`` rows is formatted by one ``%`` over its values.
    """
    cols = [c[:, None] if c.ndim == 1 else c
            for c in (np.asarray(c, dtype=float) for c in columns)]
    width = sum(c.shape[1] for c in cols)
    line = ",".join(["%.17g"] * width) + tail.replace("%", "%%")
    for lo in range(0, len(cols[0]), _BLOCK_ROWS):
        block = np.hstack([c[lo:lo + _BLOCK_ROWS] for c in cols])
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


def dataset_digest(data: TrajectoryDataset) -> str:
    """Stable content hash of a dataset (order-sensitive)."""
    h = hashlib.sha256()
    for arr in (data.t, data.x, data.u, data.delta):
        if arr is not None:
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return "sha256:" + h.hexdigest()[:16]


# --- model files -------------------------------------------------------------

def save_model(path, model: SeparatedModel, seed: Optional[int] = None,
               delta: Optional[float] = None, digest: str = "") -> None:
    """Write a model file: versioned header, basis fields, theta block.

    The ``feature_dim`` line is the constant 1, the scalar time feature,
    which :func:`load_model` requires of every model file.
    """
    cfg = model.config
    lines = [
        f"format_version = {MODEL_FORMAT_VERSION}",
        f"p = {cfg.p}",
        f"n = {cfg.n}",
        "feature_dim = 1",
        f"normalize = {'true' if cfg.normalize else 'false'}",
        "x_box = " + "; ".join(f"{fmt(lo)},{fmt(hi)}" for lo, hi in cfg.x_box),
        "t_box = {},{}".format(*map(fmt, cfg.t_box)),
        f"seed = {'' if seed is None else seed}",
        f"ridge_delta = {'' if delta is None else fmt(delta)}",
        f"dataset_digest = {digest}",
        "created = " + datetime.now(timezone.utc).isoformat(timespec="seconds"),
        f"theta_rows = {model.theta.shape[0]}",
        f"theta_cols = {model.theta.shape[1]}",
        "theta =",
    ]
    for row in model.theta:
        lines.append("  " + " ".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_model(path) -> SeparatedModel:
    """Read a model file written by :func:`save_model`.

    Every :class:`DataError` it raises names the file.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    try:
        return _parse_model(path.read_text())
    except KeyError as exc:
        raise DataError(f"model file {path}: missing field {exc}") from exc
    except ValueError as exc:
        raise DataError(f"model file {path}: malformed: {exc}") from exc
    except (ConfigError, DataError) as exc:
        raise DataError(f"model file {path}: {exc}") from exc


def _parse_model(text: str) -> SeparatedModel:
    fields: dict[str, str] = {}
    theta_lines: list[str] = []
    in_theta = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if in_theta:
            theta_lines.append(line)
            continue
        if line == "theta =":
            in_theta = True
            continue
        if "=" not in line:
            raise DataError(f"line not key = value: {line!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()

    version = int(fields["format_version"])
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version}")
    if int(fields["feature_dim"]) != 1:
        raise DataError(f"feature_dim = {fields['feature_dim']}, "
                        "only the scalar time feature (1) is supported")
    if fields["normalize"] not in ("true", "false"):
        raise DataError(f"normalize = {fields['normalize']}, expected true or false")
    cfg = BasisConfig(
        p=int(fields["p"]), n=int(fields["n"]),
        x_box=_parse_box(fields["x_box"]),
        t_box=_parse_box(fields["t_box"]),
        normalize=fields["normalize"] == "true")
    rows, cols = int(fields["theta_rows"]), int(fields["theta_cols"])
    theta = np.array([[float(v) for v in line.split()] for line in theta_lines])
    if theta.shape != (rows, cols):
        raise DataError(f"theta block is {theta.shape}, header says ({rows}, {cols})")
    return SeparatedModel(theta=theta, config=cfg)


def _parse_box(text: str) -> list[list[float]]:
    out = []
    for pair in text.split(";"):
        lo, hi = pair.split(",")
        out.append([float(lo), float(hi)])
    return out


# --- dataset CSV --------------------------------------------------------------

def dataset_columns(n: int, o: int, with_delta: bool) -> list[str]:
    cols = ["t"] + [f"x_{i+1}" for i in range(n)] + [f"u_{i+1}" for i in range(o)]
    if with_delta:
        cols += [f"delta_{i+1}" for i in range(n)]
    return cols


def save_dataset(path, data: TrajectoryDataset) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(dataset_columns(data.n, data.o, data.delta is not None))
        columns = [data.t, data.x, data.u]
        if data.delta is not None:
            columns.append(data.delta)
        _write_float_rows(fh, columns, "\r\n")


def load_dataset(path) -> TrajectoryDataset:
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataError(f"dataset file is empty: {path}")
        n = sum(1 for c in header if c.startswith("x_"))
        o = sum(1 for c in header if c.startswith("u_"))
        with_delta = any(c.startswith("delta_") for c in header)
        expected = dataset_columns(n, o, with_delta)
        if header != expected:
            raise DataError(f"dataset columns {header} do not match schema {expected}")
        # blank lines carry no record; loadtxt would warn on such a file
        if not any(line.rstrip("\r\n") for line in fh):
            raise DataError(f"dataset has a header but no records: {path}")
    try:
        # no comment character: a '#' is a bad cell, as in the fallback
        arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, comments=None)
    except ValueError:
        arr = None
    if arr is None or arr.shape[1] != len(header):
        arr = _parse_dataset_rows(path, len(header))
    return TrajectoryDataset(
        t=arr[:, 0], x=arr[:, 1:1 + n], u=arr[:, 1 + n:1 + n + o],
        delta=arr[:, 1 + n + o:] if with_delta else None)


def _parse_dataset_rows(path: Path, width: int) -> np.ndarray:
    """Per-line parse of the records after the header, as Python floats;
    a malformed record raises DataError naming its file line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = []
        for row in filter(None, reader):          # blank lines carry no record
            try:
                if len(row) != width:
                    raise ValueError(f"{len(row)} fields, header has {width}")
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    return np.asarray(rows)


# --- scenario CSV -------------------------------------------------------------

def save_scenario(path, result: ScenarioResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCENARIO_CSV_COLUMNS)
        # every row ends in the same mode cell: let csv quote it once
        tail = io.StringIO()
        csv.writer(tail).writerow(["", result.mode])
        _write_float_rows(fh, [result.t, result.eta, result.eta_d, result.v, result.u,
                               result.delta_true, result.delta_hat], tail.getvalue())


def save_sigma_series(path, result: ScenarioResult) -> None:
    """Write the logged HODO feature estimates: columns t, sigma_1..sigma_s2."""
    with open(path, "w") as fh:
        cols = ["t"] + [f"sigma_{i+1}" for i in range(result.sigma_hat.shape[1])]
        fh.write(",".join(cols) + "\n")
        _write_float_rows(fh, [result.t, result.sigma_hat], "\n")


# --- append-style result CSVs --------------------------------------------------

def append_csv_row(path, columns: list[str], row: list) -> None:
    """Append one row, creating the file with its header when missing."""
    path = Path(path)
    fresh = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(columns)
        writer.writerow(row)


def report_row(function: str, p: int, sigma2: float, delta: float, seed: int,
               n_train: int, n_test: int, report: FitReport) -> list:
    return [function, p, fmt(sigma2), fmt(delta), seed, n_train, n_test,
            fmt(report.train_mae), fmt(report.test_mae), fmt(report.gram_condition),
            fmt(report.residual_sup),
            "" if report.theta_error is None else fmt(report.theta_error)]


def existing_sweep_keys(path) -> set[tuple]:
    """Keys (function, p, noise_variance, seed) already present in a sweep CSV."""
    path = Path(path)
    if not path.exists():
        return set()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SWEEP_CSV_COLUMNS:
            raise DataError(f"sweep columns {reader.fieldnames} do not match "
                            f"schema {SWEEP_CSV_COLUMNS}")
        return {(r["function"], int(r["p"]), float(r["noise_variance"]), int(r["seed"]))
                for r in reader}


# --- INI configuration ----------------------------------------------------------

_DEFAULTS = {
    "basis": {"p": "2", "normalize": "false", "x_box": "", "t_box": ""},
    "learning": {"function": "quad_drag_drift", "delta": "0.01", "n_samples": "10000",
                 "train_fraction": "0.5", "window": "9", "fit_order": "3",
                 "seed": "0", "noise_variance": "0.1"},
    "observer": {"poles": "-0.4, -0.4, -0.4", "ndo_gain": "0.4"},
    "scenario": {"plant": "newton", "k_eta": "10", "k_v": "25", "mass": "1",
                 "eta0": "0", "v0": "0", "sigma_v2": "0.1", "dt": "0.001",
                 "duration": "20", "modes": "none, ndo, hodo", "seed": "0",
                 "log_sigma": "false"},
    "sweep": {"functions": "sine_product, cubic_drift, sine_cubic",
              "p_values": "1, 2, 3, 4, 5, 6",
              "noise_variances": "0, 0.01, 0.05, 0.1"},
    "io": {"out_dir": "out", "model_file": "", "dataset_file": "", "results_file": ""},
}


def _typed(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            if raw.lower() not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw.lower() == "true"
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} ({exc})") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: must be finite, got {raw!r}")
    return value


def _float_list(section: str, key: str, raw: str) -> list[float]:
    if not raw.strip():
        raise ConfigError(f"{section}.{key}: must be a non-empty list")
    return [_typed(section, key, part.strip(), float) for part in raw.split(",")]


def _positive(section: str, key: str, value):
    if value <= 0:
        raise ConfigError(f"{section}.{key}: must be > 0, got {value}")
    return value


def _non_negative(section: str, key: str, value):
    if value < 0:
        raise ConfigError(f"{section}.{key}: must be >= 0, got {value}")
    return value


def parse_modes(raw: str, name: str) -> list[str]:
    """Non-empty comma list of compensation modes; an error names ``name``."""
    modes = [m.strip() for m in raw.split(",") if m.strip()]
    if not modes:
        raise ConfigError(f"{name}: must list at least one of none|ndo|hodo")
    for m in modes:
        if m not in ("none", "ndo", "hodo"):
            raise ConfigError(f"{name}: must be none|ndo|hodo, got {m!r}")
    return modes


def _registered(section: str, key: str, name: str) -> str:
    known = registered_disturbances()
    if name not in known:
        raise ConfigError(f"{section}.{key}: unknown disturbance {name!r}; known: {known}")
    return name


def load_config(path) -> dict:
    """Parse an INI experiment file, apply the defaults and type-check
    every field; returns the typed dict that the commands use."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config file malformed: {exc}") from exc

    merged = {sec: dict(defaults) for sec, defaults in _DEFAULTS.items()}
    for sec in parser.sections():
        if sec not in merged:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, value in parser.items(sec):
            if key not in merged[sec]:
                raise ConfigError(f"{sec}.{key}: unknown field")
            merged[sec][key] = value

    b, l, o, s, w, io_ = (merged[sec] for sec in _DEFAULTS)
    typed = {}
    typed["p"] = _non_negative("basis", "p", _typed("basis", "p", b["p"], int))
    typed["normalize"] = _typed("basis", "normalize", b["normalize"], bool)
    for key in ("x_box", "t_box"):
        raw = b[key].strip()
        if raw:
            pair = _float_list("basis", key, raw)
            if len(pair) != 2 or pair[0] >= pair[1]:
                raise ConfigError(f"basis.{key}: expected 'lo, hi' with lo < hi, got {raw!r}")
            typed[key] = (pair[0], pair[1])
        else:
            typed[key] = None

    typed["function"] = _registered("learning", "function", l["function"])
    typed["ridge_delta"] = _positive("learning", "delta", _typed("learning", "delta", l["delta"], float))
    typed["n_samples"] = _positive("learning", "n_samples", _typed("learning", "n_samples", l["n_samples"], int))
    typed["train_fraction"] = _typed("learning", "train_fraction", l["train_fraction"], float)
    if not 0.0 < typed["train_fraction"] < 1.0:
        raise ConfigError(f"learning.train_fraction: must be in (0, 1), got {typed['train_fraction']}")
    typed["fit_order"] = _positive("learning", "fit_order",
                                   _typed("learning", "fit_order", l["fit_order"], int))
    typed["window"] = _typed("learning", "window", l["window"], int)
    if typed["window"] % 2 == 0 or typed["window"] <= typed["fit_order"]:
        raise ConfigError(f"learning.window: must be odd and > learning.fit_order = "
                          f"{typed['fit_order']}, got {typed['window']}")
    typed["seed"] = _non_negative("learning", "seed", _typed("learning", "seed", l["seed"], int))
    typed["noise_variance"] = _non_negative(
        "learning", "noise_variance", _typed("learning", "noise_variance", l["noise_variance"], float))

    typed["poles"] = tuple(_float_list("observer", "poles", o["poles"]))
    if any(p >= 0 for p in typed["poles"]):
        raise ConfigError("observer.poles: all poles must be strictly negative")
    typed["ndo_gain"] = _positive("observer", "ndo_gain", _typed("observer", "ndo_gain", o["ndo_gain"], float))

    typed["plant"] = s["plant"]
    if typed["plant"] != "newton":
        raise ConfigError(f"scenario.plant: only 'newton' is available, got {typed['plant']!r}")
    for key, kind in (("k_eta", float), ("k_v", float), ("mass", float),
                      ("dt", float), ("duration", float)):
        typed[key] = _positive("scenario", key, _typed("scenario", key, s[key], kind))
    for key in ("eta0", "v0"):
        typed[key] = _typed("scenario", key, s[key], float)
    typed["sigma_v2"] = _non_negative("scenario", "sigma_v2",
                                      _typed("scenario", "sigma_v2", s["sigma_v2"], float))
    typed["modes"] = parse_modes(s["modes"], "scenario.modes")
    typed["scenario_seed"] = _non_negative("scenario", "seed",
                                           _typed("scenario", "seed", s["seed"], int))
    typed["log_sigma"] = _typed("scenario", "log_sigma", s["log_sigma"], bool)

    typed["sweep_functions"] = [_registered("sweep", "functions", f.strip())
                                for f in w["functions"].split(",") if f.strip()]
    if not typed["sweep_functions"]:
        raise ConfigError("sweep.functions: must be a non-empty list")
    p_values = _float_list("sweep", "p_values", w["p_values"])
    if not all(v.is_integer() and v >= 0 for v in p_values):
        raise ConfigError(f"sweep.p_values: orders must be integers >= 0, got {w['p_values']!r}")
    typed["p_values"] = [int(v) for v in p_values]
    typed["noise_variances"] = _float_list("sweep", "noise_variances", w["noise_variances"])
    if any(not v >= 0 for v in typed["noise_variances"]):
        raise ConfigError(f"sweep.noise_variances: must be >= 0, got {w['noise_variances']!r}")

    typed.update(io_)
    return typed

