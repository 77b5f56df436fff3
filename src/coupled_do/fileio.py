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
CRLF on every platform: a ``csv.writer`` header, then blocks of
``_BLOCK_ROWS`` rows, each formatted whole by :class:`_BlockFormatter`.
It gives a finite cell with a decimal exponent in -4..16 the exact
digits of ``%.17g`` from an exact float64 product and integer digit
planes, and any other cell ``%``, in one workspace per file.
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
_BLOCK_ROWS = 256       # rows per block of the series writer
_FLOAT_SPEC = ".17g"    # the format of every written float
# bytes of a cell with its separator: the longest %.17g, "-2.2250738585072014e-308,"
_CELL_BYTES = 25
_VELTKAMP = 134217729.0     # 2**27 + 1, which splits a float64 into two 26-bit halves


def fmt(value: float) -> str:
    """Decimal form that round-trips float64 exactly."""
    return format(float(value), _FLOAT_SPEC)


def _veltkamp_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: hi + lo == a exactly, each with at most 26
    significant bits, so that the product of two halves is exact."""
    c = a * _VELTKAMP
    hi = c - (c - a)
    return hi, a - hi


class _BlockFormatter:
    """Formats blocks of up to ``rows`` rows of ``width`` float cells: each
    cell has the bytes of :func:`fmt`, the cells of a row are joined by
    commas and each row ends in ``end``.

    A finite nonzero cell x whose decimal exponent X (10**X <= |x| <
    10**(X+1)) is in -4..16 is written in fixed point, and every such cell
    of a block is formatted at once in float64 and small integers:

    - ``|x| 10**(16-X) = p + e`` exactly, by Dekker's two-product (10**q is
      exact for q <= 22).  X comes from ``floor(log10 |x|)``, which can be
      one off next to a power of ten; the few cells whose ``p`` is not
      strictly inside (1e16, 1e17) take the exact comparison of ``(p, e)``
      with those bounds and move X by one.
    - ``N = p + rint(e)`` is the 17-digit integer that ``%.17g`` prints:
      ``p`` is even, being above 2**53, so rounding ``e`` half-even rounds
      ``p + e`` half-even.  N never rounds up to 10**17: the float64 below
      10**(X+1) is more than eight units of the 17th digit below it.
    - N is cut into 17 digits by one uint32 ``//`` of its two halves by the
      powers of ten.  The digits then pass through uint8 planes of shape
      (position, cell): a barrel shift by the cell's sign and leading zeros
      (``-``, ``0.000``), a one-place shift after the integer part for the
      point, the point itself, and the comma after the last digit that is
      not a trailing zero of the fraction.  Each step blends two planes
      with a mask, so a block costs about thirty whole-array operations.
    - A boolean mask of the bytes each cell keeps compacts the block in
      (cell, position) order.  The last cell of a row ends in a newline,
      which no cell contains, and which becomes ``end``.

    Zeros are "0" and "-0" in the same pass (N = 0).  Every other cell, a
    non-finite one, an exponent outside -4..16, and a cell whose exponent
    could not be settled, is written by ``%``.  The workspace is allocated
    once per file; none of its buffers depends on the block's values.
    """

    def __init__(self, rows: int, width: int, end: bytes):
        cells = rows * width
        self.rows, self.width, self.end = rows, width, end
        self.values = np.empty((rows, width))
        # the byte after each cell: a comma, and a newline after a row's last
        self.after = np.tile(np.frombuffer(b"," * (width - 1) + b"\n", np.uint8), rows)
        pow10 = np.array([float(10**q) for q in range(23)])
        self.pow10 = (pow10, *_veltkamp_split(pow10))
        # by q = 16 - X: the zeros after "0." and the length of the integer part
        exponent = 16 - np.arange(23)
        self.zeros = np.maximum(-exponent, 0).astype(np.uint8)
        self.integer = (np.maximum(exponent, 0) + 1).astype(np.uint8)
        self.place = np.arange(_CELL_BYTES, dtype=np.uint8)[:, None]
        # 7 rows of "0", then the 17 digits: the shifts read up to 7 rows up
        self.digits = np.full((_CELL_BYTES + 7, cells), ord("0"), np.uint8)
        self.high_low = np.empty((1, 2 * cells), np.uint32)
        self.divisors = 10 ** np.arange(8, -1, -1, dtype=np.uint32)[:, None]
        # the quotients live only until the digits are cut, then the same
        # bytes hold the planes that the shifts alternate between (28 and
        # 26 rows: each shift drops 4, 2 or 1 of the digits' 32) and a mask
        scratch = np.empty(max(9 * 2 * cells * 4, (3 * _CELL_BYTES + 4) * cells), np.uint8)
        self.quotients = scratch[:9 * 2 * cells * 4].view(np.uint32).reshape(9, 2 * cells)
        planes = np.cumsum([0, _CELL_BYTES + 3, _CELL_BYTES + 1, _CELL_BYTES]) * cells
        self.planes = [scratch[lo:hi].reshape(-1, cells) for lo, hi in zip(planes, planes[1:])]

    def _product(self, mag: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``mag * 10**q`` as ``p + e`` exactly: ``p`` the float64 product."""
        pow10, pow_hi, pow_lo = self.pow10
        mag_hi, mag_lo = _veltkamp_split(mag)
        p = pow10.take(q)
        p *= mag
        e = pow_hi.take(q)
        cross = mag_lo * e
        e *= mag_hi
        e -= p
        e += cross
        np.multiply(mag_hi, pow_lo.take(q), out=cross)
        e += cross
        np.multiply(mag_lo, pow_lo.take(q), out=cross)
        e += cross
        return p, e

    def _settle(self, mag: np.ndarray, q: np.ndarray):
        """``p``, ``e`` and ``q`` of cells whose first product is not strictly
        inside (1e16, 1e17), and whether each is now inside [1e16, 1e17)."""
        p, e = self._product(mag, q)
        q = np.clip(q + _decade_shift(p, e), 0, 22)
        p, e = self._product(mag, q)
        return p, e, q, _decade_shift(p, e) == 0

    def __call__(self, blocks: list) -> bytes:
        """The rows of ``blocks``, arrays of shape (k, ·) side by side."""
        used = len(blocks[0]) * self.width
        np.concatenate(blocks, axis=1, out=self.values[:len(blocks[0])])
        v = self.values.reshape(-1)
        cells = len(v)
        mag = np.abs(v)
        fixed = (mag >= 1e-4) & (mag < 1e17)
        mag = np.where(fixed, mag, 1.0)
        q = (17 - np.log10(mag)).astype(np.intp)    # 16 - floor, or one more at 10**X
        p, e = self._product(mag, q)
        odd = np.flatnonzero(fixed & ((p <= 1e16) | (p >= 1e17)))
        if odd.size:
            p[odd], e[odd], q[odd], fixed[odd] = self._settle(mag[odd], q[odd])
        n = p.astype(np.int64)
        n += np.rint(e).astype(np.int64)
        zero = v == 0
        n[zero] = 0
        fixed |= zero

        # the digits: each half of N (8 and 9 digits) by 10**8..10**0, then
        # each quotient less ten times the one before
        np.floor_divide(n, 10**9, out=self.high_low[0, :cells], casting="unsafe")
        np.subtract(n, self.high_low[0, :cells] * np.int64(10**9), out=self.high_low[0, cells:],
                    casting="unsafe")
        np.floor_divide(self.high_low, self.divisors, out=self.quotients)
        digits = self.digits[6:24].reshape(2, 9, cells)
        np.copyto(digits, self.quotients.reshape(9, 2, cells).transpose(1, 0, 2),
                  casting="unsafe")
        a, b, mask = self.planes
        tens = a[:16].reshape(2, 8, cells)
        np.multiply(digits[:, :-1], 10, out=tens)
        np.subtract(digits[:, 1:], tens, out=digits[:, 1:])
        digits += ord("0")

        # shift right by the sign and the zeros after "0.": bits 4, 2, 1
        sign = np.signbit(v).view(np.uint8)
        shift = self.zeros.take(q) + sign
        point = self.integer.take(q) + sign
        plane = self.digits
        for out, bit in ((a, 4), (b, 2), (a, 1)):
            rows = len(plane) - bit
            _blend(out[:rows], plane[:rows], plane[bit:],
                   (shift & bit).astype(bool).view(np.uint8))
            plane = out[:rows]
        text = b[:_CELL_BYTES]
        text[0] = plane[0]
        # after the integer part each byte moves one place right, for the point
        _blend(text[1:], plane[:-1], plane[1:],
               np.greater(self.place[1:], point, out=mask[1:].view(bool)).view(np.uint8))
        # the cell ends after its last nonzero digit, but not inside the integer part
        nonzero = np.greater(text, ord("0"), out=mask.view(bool)).view(np.uint8)
        length = np.maximum(np.multiply(nonzero, self.place + 1, out=mask).max(axis=0), point)
        _blend(text, np.uint8(ord(".")), text,
               np.equal(self.place, point, out=mask.view(bool)).view(np.uint8), spare=a)
        _blend(text, self.after, text,
               np.equal(self.place, length, out=mask.view(bool)).view(np.uint8), spare=a)
        text[0] -= sign * (ord("0") - ord("-"))     # a shifted "0" becomes the sign
        keep = np.less_equal(self.place, length, out=mask.view(bool))

        rest = np.flatnonzero(~fixed[:used])
        for c, x in zip(rest.tolist(), v[rest].tolist()):
            data = fmt(x).encode() + self.after[c:c + 1].tobytes()
            text[:len(data), c] = np.frombuffer(data, np.uint8)
            keep[:, c] = self.place[:, 0] < len(data)
        kept = text[:, :used].T[keep[:, :used].T]
        return kept.tobytes().replace(b"\n", self.end)


def _decade_shift(p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """+1 where ``p + e < 1e16``, -1 where ``p + e >= 1e17``, else 0: exact,
    as ``p`` is ``p + e`` rounded and rounding is monotonic."""
    below = (p < 1e16) | ((p == 1e16) & (e < 0))
    above = (p > 1e17) | ((p == 1e17) & (e >= 0))
    return below.astype(np.intp) - above


def _blend(out, a, b, mask, spare=None):
    """``out = a`` where ``mask`` is 1, else ``b``, for uint8 planes;
    ``spare`` holds the difference when ``out`` is ``a`` or ``b``."""
    diff = out if spare is None else spare[:len(out)]
    np.bitwise_xor(a, b, out=diff)
    np.multiply(diff, mask, out=diff)
    np.bitwise_xor(diff, b, out=out)


def _write_float_rows(path, header: list[str], columns, tail: str = "") -> None:
    """Write a series CSV: ``header`` as ``csv.writer`` writes it, then the
    rows of side-by-side float columns, each cell as :func:`fmt` gives it,
    comma-separated and followed by ``tail`` and CRLF.

    ``columns`` holds arrays of shape (N,) or (N, k).  The rows are
    formatted ``_BLOCK_ROWS`` at a time by one :class:`_BlockFormatter`.
    """
    cols = [c[:, None] if c.ndim == 1 else c
            for c in (np.asarray(c, dtype=float) for c in columns)]
    rows = len(cols[0])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.flush()      # the rows go to the byte stream beneath, after the header
        if not rows:
            return
        block = _BlockFormatter(min(rows, _BLOCK_ROWS), sum(c.shape[1] for c in cols),
                                (tail + "\r\n").encode(fh.encoding))
        for lo in range(0, rows, block.rows):
            fh.buffer.write(block([c[lo:lo + block.rows] for c in cols]))


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
        with open(path, newline="") as fh:
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
