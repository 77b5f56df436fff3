"""File formats: model files, dataset and result CSVs, and INI configs.

:func:`load_config` parses an INI experiment file into two dataclasses,
whose constructors hold the only defaults and range checks: the
``[basis]``/``[learning]``/``[sweep]`` keys become a :class:`LearningConfig`
and the ``[scenario]``/``[observer]`` keys a :class:`ScenarioConfig`.  Each
error names its ``section.field``.

All numeric fields are serialized with 17 significant digits so that a
load of a save reproduces every value bit-exactly.  Model files carry a
format version; CSV files are plain RFC-4180 with a header row, whose
column sets below are pinned by golden-file tests.  Models and datasets
describe one state channel: a model file's ``n`` is 1, and a dataset's
columns are t, x_1, u_1 and, with targets, delta_1; any other header is
refused before a record is read.

One writer gives every per-step series (dataset, scenario, sigma) the
bytes of ``csv.writer`` with :func:`fmt` per value, each line ended by
CRLF on every platform: a ``csv.writer`` header, then blocks of about
``_BLOCK_CELLS`` cells, each formatted whole by
:class:`~coupled_do.csvblocks.BlockFormatter`.  It gives a finite cell
with a decimal exponent in -4..16 the exact digits of ``%.17g`` from an
exact float64 product and integer digit planes, and any other cell ``%``,
in one workspace per file.

:func:`load_dataset` reads the records after the header in blocks of
about 256 KB, each cut after a newline and parsed whole by
:class:`~coupled_do.csvblocks.BlockParser` into the bits that ``float``
gives each cell: the separators are checked against the record pattern,
each cell is read as three little-endian words, its digits are packed by
multiply-shift steps (Lemire, "Number parsing at a gigabyte per second",
2021) and the mantissa is divided by the power of ten, exactly when it is
at most 2**53 (Clinger, "How to read floating point numbers accurately",
1990) and with a double-double correction above.  A cell of another form
(an exponent, ``inf``, ``nan``, a ``+``, more than 24 bytes) or one whose
quotient lies near a rounding midpoint goes through ``float`` alone.  A
file that the block parser refuses is read by a per-line ``csv`` parser,
which also accepts quoted and underscored numbers and mixed line ends,
and names the file line of a bad record.

An input byte that the text encoding cannot decode is an error that names
its file: a :class:`ConfigError` in the INI, else a :class:`DataError`.
"""

from __future__ import annotations

import configparser
import contextlib
import csv
import hashlib
import io
import math
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from .basis import BasisConfig
from .csvblocks import FLOAT_SPEC, BlockFormatter, parse_records
from .errors import ConfigError, DataError
from .learner import FitReport, LearningConfig, SeparatedModel, TrajectoryDataset
from .sim import MODES, ScenarioConfig, ScenarioResult

MODEL_FORMAT_VERSION = 1

# a dataset file holds the one channel: "delta_1" follows when it carries targets
DATASET_CSV_COLUMNS = ["t", "x_1", "u_1"]
SCENARIO_CSV_COLUMNS = ["t", "eta", "eta_d", "v", "u", "delta_true", "delta_hat", "mode"]
REPORT_CSV_COLUMNS = ["function", "p", "noise_variance", "delta", "seed", "n_train",
                      "n_test", "train_mae", "test_mae", "gram_condition",
                      "residual_sup"]
SWEEP_CSV_COLUMNS = ["function", "p", "noise_variance", "seed", "test_mae", "status"]
METRICS_CSV_COLUMNS = ["mode", "seed", "tracking_mae", "estimation_mae",
                       "estimation_tail_mae", "decay_slope", "gain_failures"]
_BLOCK_CELLS = 1792     # cells per block of the series writer: 256 rows of a scenario file


def fmt(value: float) -> str:
    """Decimal form that round-trips float64 exactly."""
    return format(float(value), FLOAT_SPEC)


def _write_float_rows(path, header: list[str], columns, tail: str = "") -> None:
    """Write a series CSV: ``header`` as ``csv.writer`` writes it, then the
    rows of side-by-side float columns, each cell as :func:`fmt` gives it,
    comma-separated and followed by ``tail`` and CRLF.

    ``columns`` holds arrays of shape (N,) or (N, k).  The rows are
    formatted by one :class:`~coupled_do.csvblocks.BlockFormatter`,
    ``_BLOCK_CELLS`` cells rounded up to whole rows at a time: its digit
    step runs several times slower per cell on fewer.
    """
    cols = [c[:, None] if c.ndim == 1 else c
            for c in (np.asarray(c, dtype=float) for c in columns)]
    rows = len(cols[0])
    width = sum(c.shape[1] for c in cols)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()      # the rows go to the byte stream beneath, after the header
        if not rows:
            return
        block = BlockFormatter(min(rows, -(-_BLOCK_CELLS // width)), width,
                               (tail + "\r\n").encode(fh.encoding))
        for lo in range(0, rows, block.rows):
            fh.buffer.write(block([c[lo:lo + block.rows] for c in cols]))


@contextlib.contextmanager
def _decoding(path, error=DataError):
    """Raises ``error``, naming ``path``, for a UnicodeDecodeError in the block."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not {exc.encoding} text ({exc.reason})") from None


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

    The ``n`` and ``feature_dim`` lines are the constant 1, the one state
    channel and the scalar time feature, which :func:`load_model` requires
    of every model file.
    """
    cfg = model.config
    lines = [
        f"format_version = {MODEL_FORMAT_VERSION}",
        f"p = {cfg.p}",
        "n = 1",
        "feature_dim = 1",
        f"normalize = {'true' if cfg.normalize else 'false'}",
        "x_box = {},{}".format(*map(fmt, cfg.x_box)),
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
    except (ConfigError, DataError) as exc:     # a refusal of the basis or theta
        raise DataError(f"model file {path}: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"model file {path}: malformed: {exc}") from exc


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
    return [[float(lo), float(hi)] for lo, hi in (pair.split(",") for pair in text.split(";"))]


# --- dataset CSV --------------------------------------------------------------

def save_dataset(path, data: TrajectoryDataset) -> None:
    with_delta = data.delta is not None
    _write_float_rows(path, DATASET_CSV_COLUMNS + ["delta_1"] * with_delta,
                      [data.t, data.x, data.u] + ([data.delta] if with_delta else []))


def load_dataset(path) -> TrajectoryDataset:
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    with _decoding(path), open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise DataError(f"dataset file is empty: {path}")
        with_delta = header[3:] == ["delta_1"]
        if header != DATASET_CSV_COLUMNS + ["delta_1"] * with_delta:
            raise DataError(f"dataset columns {header} do not match schema "
                            f"{DATASET_CSV_COLUMNS}, optionally followed by delta_1")
        # blank lines carry no record
        if not any(line.rstrip("\r\n") for line in fh):
            raise DataError(f"dataset has a header but no records: {path}")
    arr = parse_records(path, header)
    if arr is None:
        with _decoding(path):
            arr = _parse_dataset_rows(path, len(header))
    return TrajectoryDataset(t=arr[:, 0], x=arr[:, 1:2], u=arr[:, 2:3],
                             delta=arr[:, 3:] if with_delta else None)


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
    """Write one mode's per-step series."""
    # every row ends in the same mode cell: let csv quote it once
    tail = io.StringIO()
    csv.writer(tail).writerow(["", result.mode])
    _write_float_rows(path, SCENARIO_CSV_COLUMNS,
                      [result.t, result.eta, result.eta_d, result.v, result.u,
                       result.delta_true, result.delta_hat],
                      tail.getvalue().removesuffix("\r\n"))


def save_sigma_series(path, result: ScenarioResult) -> None:
    """Write the logged HODO feature estimates: columns t, sigma_1..sigma_s2."""
    _write_float_rows(path, ["t"] + [f"sigma_{i+1}" for i in range(result.sigma_hat.shape[1])],
                      [result.t, result.sigma_hat])


# --- append-style result CSVs --------------------------------------------------

def check_csv_header(path, columns: list[str]) -> None:
    """DataError unless ``path`` is missing, empty or headed by ``columns``:
    the check of :func:`append_csv_rows`, for a command to make before it
    writes its first output."""
    if Path(path).exists():
        with _decoding(path), open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
        if header not in (None, columns):
            raise DataError(f"{path}: columns {header} do not match schema {columns}")


def append_csv_rows(path, columns: list[str], rows: list) -> None:
    """Append ``rows`` in one open, writing the header first into a new or
    empty file; a file with another header raises DataError, and no rows
    leave the file as it is."""
    check_csv_header(path, columns)
    if not rows:
        return
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(columns)
        writer.writerows(rows)


def append_csv_row(path, columns: list[str], row: list) -> None:
    """Append one row, as :func:`append_csv_rows` does."""
    append_csv_rows(path, columns, [row])


def report_row(function: str, p: int, sigma2: float, delta: float, seed: int,
               n_train: int, n_test: int, report: FitReport) -> list:
    return [function, p, fmt(sigma2), fmt(delta), seed, n_train, n_test,
            fmt(report.train_mae), fmt(report.test_mae), fmt(report.gram_condition),
            fmt(report.residual_sup)]


def existing_sweep_keys(path) -> set[tuple]:
    """Keys (function, p, noise_variance, seed) already present in a sweep CSV;
    a file with another header raises DataError, as in :func:`append_csv_rows`,
    and so does a row that is not a key, naming the file line."""
    check_csv_header(path, SWEEP_CSV_COLUMNS)
    if not Path(path).exists():
        return set()
    keys = set()
    with _decoding(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in filter(None, reader):          # blank lines carry no record
            try:
                if len(row) != len(SWEEP_CSV_COLUMNS):
                    raise ValueError(f"{len(row)} fields, header has {len(SWEEP_CSV_COLUMNS)}")
                keys.add((row[0], int(row[1]), float(row[2]), int(row[3])))
            except ValueError as exc:
                raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    return keys


# --- INI configuration ----------------------------------------------------------

# the keys that are not dataclass fields, with their defaults
_DEFAULTS = {
    "scenario": {"modes": ", ".join(MODES)},
    "io": {"out_dir": "out", "model_file": "", "dataset_file": ""},
}

# the keys that are fields of each dataclass, with their kind; an absent key keeps the default
_FIELDS = {
    LearningConfig: {
        "basis": {"p": int, "normalize": bool, "x_box": "box", "t_box": "box"},
        "learning": {"function": str, "delta": float, "n_samples": int,
                     "train_fraction": float, "window": int, "fit_order": int, "seed": int,
                     "noise_variance": float},
        "sweep": {"functions": list, "p_values": tuple, "noise_variances": tuple},
    },
    ScenarioConfig: {
        "observer": {"poles": tuple, "ndo_gain": float},
        "scenario": {"k_eta": float, "k_v": float, "mass": float, "eta0": float, "v0": float,
                     "sigma_v2": float, "dt": float, "duration": float, "seed": int,
                     "log_sigma": bool},
    },
}
_KINDS = {sec: kinds for sections in _FIELDS.values() for sec, kinds in sections.items()}


def _typed(section: str, key: str, raw: str, kind):
    """``raw`` parsed as ``kind``: a finite number, a bool or a str.  The
    kind ``tuple`` is a non-empty comma list of finite floats, ``list`` one
    of names, and ``"box"`` a tuple or, when empty, None."""
    if kind is str:
        return raw
    if kind == "box":
        return _typed(section, key, raw, tuple) if raw.strip() else None
    if kind in (tuple, list):
        parts = [part.strip() for part in raw.split(",")]
        if not any(parts):
            raise ConfigError(f"{section}.{key}: must be a non-empty list")
        if kind is list:
            return tuple(filter(None, parts))
        return tuple(_typed(section, key, part, float) for part in parts)
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


def parse_modes(raw: str, name: str) -> list[str]:
    """Non-empty comma list of compensation modes, a repeat dropped (each
    mode runs once); an error names ``name``."""
    modes = list(dict.fromkeys(m.strip() for m in raw.split(",") if m.strip()))
    if not modes:
        raise ConfigError(f"{name}: must list at least one of {'|'.join(MODES)}")
    for m in modes:
        if m not in MODES:
            raise ConfigError(f"{name}: must be {'|'.join(MODES)}, got {m!r}")
    return modes


def load_config(path) -> dict:
    """Parse an INI experiment file into the dict that the commands use:
    ``"learning"``, a :class:`LearningConfig`, and ``"scenario"``, a
    :class:`ScenarioConfig` of mode "none", each built from the keys that
    are its fields; ``"modes"``, the ``scenario.modes`` list; and the
    ``[io]`` keys as strings."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with _decoding(path, ConfigError):
            parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"config file malformed: {exc}") from exc

    merged = {sec: dict(_DEFAULTS.get(sec, {})) for sec in [*_KINDS, "io"]}
    for sec in parser.sections():
        if sec not in merged:
            raise ConfigError(f"unknown config section [{sec}]")
        for key, value in parser.items(sec):
            if key not in merged[sec] and key not in _KINDS.get(sec, ()):
                raise ConfigError(f"{sec}.{key}: unknown field")
            merged[sec][key] = value

    typed = {name: cls(**{key: _typed(sec, key, merged[sec][key], kind)
                          for sec, kinds in _FIELDS[cls].items()
                          for key, kind in kinds.items() if key in merged[sec]})
             for name, cls in (("learning", LearningConfig), ("scenario", ScenarioConfig))}
    typed["modes"] = parse_modes(merged["scenario"]["modes"], "scenario.modes")
    typed.update(merged["io"])
    return typed
