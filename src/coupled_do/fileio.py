"""File formats: model files, dataset and result CSVs, and INI configs.

:func:`load_config` parses an INI experiment file into two dataclasses,
whose constructors hold the only defaults and range checks: the
``[basis]``/``[learning]``/``[sweep]`` keys become a :class:`LearningConfig`
and the ``[scenario]``/``[observer]`` keys a :class:`ScenarioConfig`.  Each
error names its ``section.field``.

All numeric fields are serialized with 17 significant digits so that a
load of a save reproduces every value bit-exactly.  Model files carry a
format version; CSV files are plain RFC-4180 with a header row, whose
column sets below are pinned by golden-file tests.

One writer gives every per-step series (dataset, scenario, sigma) the
bytes of ``csv.writer`` with :func:`fmt` per value, each line ended by
CRLF on every platform: a ``csv.writer`` header, then one ``%.17g`` row
template over blocks of ``_BLOCK_ROWS`` rows, at a bounded memory cost.
The cells that several files of one command share are formatted once per
command: the modes of one ``simulate`` run have the same ``t`` and
``eta_d`` bits, so each block of those two columns is formatted by the
first mode and kept as one string, which the later modes fill with their
own cells, and a block whose bits differ is formatted afresh.  The store
belongs to the command, so nothing formatted outlives it.
:func:`load_dataset` parses with :func:`numpy.loadtxt` and falls back to
a per-line ``csv`` parser when ``loadtxt`` rejects the file or reads a
width other than the header's.  The fallback also accepts the quoted and
underscored numbers that ``loadtxt`` rejects, and it names the file line
of a bad record.
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
from .learner import FitReport, LearningConfig, SeparatedModel, TrajectoryDataset
from .sim import MODES, ScenarioConfig, ScenarioResult

MODEL_FORMAT_VERSION = 1

SCENARIO_CSV_COLUMNS = ["t", "eta", "eta_d", "v", "u", "delta_true", "delta_hat", "mode"]
REPORT_CSV_COLUMNS = ["function", "p", "noise_variance", "delta", "seed", "n_train",
                      "n_test", "train_mae", "test_mae", "gram_condition",
                      "residual_sup"]
SWEEP_CSV_COLUMNS = ["function", "p", "noise_variance", "seed", "test_mae", "status"]
METRICS_CSV_COLUMNS = ["mode", "seed", "tracking_mae", "estimation_mae",
                       "estimation_tail_mae", "decay_slope", "gain_failures"]
# the columns whose cells every mode of one run shares
_SHARED_SCENARIO_COLUMNS = (SCENARIO_CSV_COLUMNS.index("t"), SCENARIO_CSV_COLUMNS.index("eta_d"))


_BLOCK_ROWS = 1024      # rows per formatted string in the series writer
_FLOAT_SPEC = ".17g"    # the format of every written float


def fmt(value: float) -> str:
    """Decimal form that round-trips float64 exactly."""
    return format(float(value), _FLOAT_SPEC)


def _raw(blocks) -> bytes:
    """The bytes of the cells of ``blocks``, one after the other."""
    return b"".join(block.tobytes() for block in blocks)


def _write_float_rows(path, header: list[str], columns, tail: str = "",
                      shared: Optional[dict] = None, shared_columns: tuple = ()) -> None:
    """Write a series CSV: ``header`` as ``csv.writer`` writes it, then the
    rows of side-by-side float columns, each cell as :func:`fmt` gives it,
    comma-separated and followed by ``tail`` and CRLF.

    ``columns`` holds arrays of shape (N,) or (N, k).  Each block of
    ``_BLOCK_ROWS`` rows is formatted by one ``%`` over its values.

    ``shared`` is None, or a dict that the writes of one command hand on
    from one to the next, so that the cells of the columns at the
    positions ``shared_columns`` are formatted once.  It maps a block's
    first row to those cells, as views of the first write's columns, and
    the block's row text, in which they are written out and every other
    cell, and the tail, is a ``%`` field.  A block whose cells there have
    the raw bytes of the stored ones fills that text; any other block is
    formatted afresh.  Views, not copies: one stored copy per block left
    the heap fragmented enough to raise the peak RSS of a later ``sweep``
    in the same process by 0.7 MB.
    """
    cols = [c[:, None] if c.ndim == 1 else c
            for c in (np.asarray(c, dtype=float) for c in columns)]
    cell = "%" + _FLOAT_SPEC
    if shared is None:
        line = ",".join([cell] * sum(c.shape[1] for c in cols)) + tail.replace("%", "%%") + "\r\n"
    else:
        # the shared cells are filled at once, the others ("%%") by each write
        line = ",".join(cell if i in shared_columns else "%" + cell
                        for i, c in enumerate(cols) for _ in range(c.shape[1])) + "%%s\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, len(cols[0]), _BLOCK_ROWS):
            blocks = [c[lo:lo + _BLOCK_ROWS] for c in cols]
            if shared is None:
                block = np.hstack(blocks)
                fh.write((line * len(block)) % tuple(block.ravel().tolist()))
                continue
            fixed = [b for i, b in enumerate(blocks) if i in shared_columns]
            rest = np.hstack([b for i, b in enumerate(blocks) if i not in shared_columns])
            stored, text = shared.get(lo, ((), None))
            if _raw(stored) != _raw(fixed):
                text = (line * len(rest)) % tuple(np.hstack(fixed).ravel().tolist())
                shared.setdefault(lo, (fixed, text))
            # each row's own cells, then the tail
            values = [tail] * (rest.size + len(rest))
            for j, col in enumerate(rest.T.tolist()):
                values[j::rest.shape[1] + 1] = col
            fh.write(text % tuple(values))


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
    return [[float(lo), float(hi)] for lo, hi in (pair.split(",") for pair in text.split(";"))]


# --- dataset CSV --------------------------------------------------------------

def dataset_columns(n: int, o: int, with_delta: bool) -> list[str]:
    cols = ["t"] + [f"x_{i+1}" for i in range(n)] + [f"u_{i+1}" for i in range(o)]
    if with_delta:
        cols += [f"delta_{i+1}" for i in range(n)]
    return cols


def save_dataset(path, data: TrajectoryDataset) -> None:
    with_delta = data.delta is not None
    _write_float_rows(path, dataset_columns(data.n, data.o, with_delta),
                      [data.t, data.x, data.u] + ([data.delta] if with_delta else []))


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

def save_scenario(path, result: ScenarioResult, shared: Optional[dict] = None) -> None:
    """Write one mode's per-step series.  ``shared`` is None, or one dict
    that a command passes to each of its calls: the modes of one command
    share the bits of their ``t`` and ``eta_d`` cells, which are then
    formatted once (see :func:`_write_float_rows`)."""
    # every row ends in the same mode cell: let csv quote it once
    tail = io.StringIO()
    csv.writer(tail).writerow(["", result.mode])
    _write_float_rows(path, SCENARIO_CSV_COLUMNS,
                      [result.t, result.eta, result.eta_d, result.v, result.u,
                       result.delta_true, result.delta_hat],
                      tail.getvalue().removesuffix("\r\n"), shared, _SHARED_SCENARIO_COLUMNS)


def save_sigma_series(path, result: ScenarioResult) -> None:
    """Write the logged HODO feature estimates: columns t, sigma_1..sigma_s2."""
    _write_float_rows(path, ["t"] + [f"sigma_{i+1}" for i in range(result.sigma_hat.shape[1])],
                      [result.t, result.sigma_hat])


# --- append-style result CSVs --------------------------------------------------

def check_csv_header(path, columns: list[str]) -> None:
    """DataError unless ``path`` is missing, empty or headed by ``columns``:
    the check of :func:`append_csv_row`, for a command to make before it
    writes its first output."""
    if Path(path).exists():
        with open(path, newline="") as fh:
            header = next(csv.reader(fh), None)
        if header not in (None, columns):
            raise DataError(f"{path}: columns {header} do not match schema {columns}")


def append_csv_row(path, columns: list[str], row: list) -> None:
    """Append one row, writing the header first into a new or empty file;
    a file with another header raises DataError."""
    check_csv_header(path, columns)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:
            writer.writerow(columns)
        writer.writerow(row)


def report_row(function: str, p: int, sigma2: float, delta: float, seed: int,
               n_train: int, n_test: int, report: FitReport) -> list:
    return [function, p, fmt(sigma2), fmt(delta), seed, n_train, n_test,
            fmt(report.train_mae), fmt(report.test_mae), fmt(report.gram_condition),
            fmt(report.residual_sup)]


def existing_sweep_keys(path) -> set[tuple]:
    """Keys (function, p, noise_variance, seed) already present in a sweep CSV;
    a file with another header raises DataError, as in :func:`append_csv_row`,
    and so does a row that is not a key, naming the file line."""
    check_csv_header(path, SWEEP_CSV_COLUMNS)
    if not Path(path).exists():
        return set()
    keys = set()
    with open(path, newline="") as fh:
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
