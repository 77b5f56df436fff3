"""Dataset handling and ridge identification of separable disturbance models.

The identification problem is

    minimize over Theta   1/2 [ sum_n ||delta_n - Theta B(x_n) xi(t_n)||^2
                                + delta * ||Theta||_F^2 ]

whose closed-form solution

    Theta* = (sum_n delta_n xi_n^T B_n^T) (sum_n B_n xi_n xi_n^T B_n^T + delta I)^{-1}

is computed here through a Cholesky solve of the diagonally equilibrated
regularized Gram matrix, never an explicit inverse.  At most a few dozen
unknowns enter one solve, so NumPy's ``cholesky`` and ``solve`` on the
two triangular factors serve; the package needs no other library.
Every dataset and model describes one state channel: x, u and the
targets delta are single columns, and Theta is one row of s1 = (p+1)^2
coefficients.

Reruns are byte-identical only within one NumPy/LAPACK build: on raw
bases of high order the equilibrated Gram is ill-conditioned (condition
1.37e11 for a p = 6 fit of ``sine_cubic``).  Measured on that fit, the
Cholesky factors of NumPy and SciPy move Theta by 2.7e-11 relative
through the same solves, and other solve routes by up to 5.0e-9.

:class:`LearningConfig` holds the settings of ``learn`` and ``sweep``, and
:func:`sweep` takes only it, with the cells already done: the seed, the grid
of functions, orders and noise levels, the sampling boxes and the fit
settings are its fields.  Its range checks are the ones that the functions
here apply to their arguments.  :func:`fit_rls` and :func:`sweep` share one
factor (design, Gram, Cholesky) and one solve, so a sweep cell has the bits
of the ``fit_rls`` call on its data.  The sweep draws and splits each
sampling box once, for all of its functions, orders and noise levels.

The registry of named disturbances (:func:`disturbance`,
:func:`disturbance_box`) lives here, the lowest module that needs it; the
module imports only ``basis`` and ``errors``, and ``sim`` imports the
registry from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import BasisConfig, check_box, check_order, structure_matrices
from .errors import ConfigError, DataError, NumericalError


# the range checks of LearningConfig and the seeds, which the library's guards share
_RULES = {
    "learning.train_fraction": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
    "learning.delta": ("a ridge weight > 0", lambda v: v > 0),
    "learning.n_samples": (">= 1", lambda v: v >= 1),
    "learning.fit_order": (">= 1", lambda v: v >= 1),
    "learning.noise_variance": (">= 0", lambda v: v >= 0),
    "seed": (">= 0", lambda v: v >= 0),
}


def check(rule: str, value, name: str = "", error: type = ConfigError):
    """``value`` if it keeps ``rule``, else ``error`` (DataError where a dataset
    is at fault) with a message naming ``name``, by default the rule's field."""
    text, ok = _RULES[rule]
    if not ok(value):
        raise error(f"{name or rule}: must be {text}, got {value}")
    return value


def check_window(window: int, fit_order: int) -> None:
    check("learning.fit_order", fit_order)
    if window % 2 == 0 or window <= fit_order:
        raise ConfigError(f"learning.window: must be odd and > learning.fit_order = "
                          f"{fit_order}, got {window}")


def rng_stream(seed: int, *key) -> np.random.Generator:
    """Derive an independent generator from a top-level seed and a key.

    Key parts may be non-negative ints or strings of any length; a string
    enters whole as the integer of its UTF-8 bytes, so streams are stable
    across platforms and distinct strings (trailing NULs aside) differ.
    """
    words = [int(seed)] + [int.from_bytes(k.encode(), "little") if isinstance(k, str)
                           else int(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence(words))


@dataclass
class TrajectoryDataset:
    """Time-stamped samples of (t, x, u) of one channel, with optional
    disturbance targets.

    Attributes
    ----------
    t : ndarray, shape (N,)
        Sample times.  Strictly increasing when the records form a
        trajectory (required by :func:`targets_from_trajectory`);
        scrambled training sets carry arbitrary order.
    x, u : ndarray, shape (N, 1)
        The state and the input; a column given as shape (N,) is stored
        as (N, 1), and any other shape raises DataError.
    delta : ndarray, shape (N, 1), optional
        Disturbance targets for learning and evaluation, shaped as x.
    """

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    delta: Optional[np.ndarray] = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        for name in ("x", "u", "delta"):        # a 1-D column is one of shape (N, 1)
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                arr = arr[:, None] if arr.ndim == 1 else arr
                if arr.shape[1:] != (1,):
                    raise DataError(f"{name} has shape {arr.shape}: one channel is (N,) "
                                    "or (N, 1)")
                setattr(self, name, arr)
        n = len(self.t)
        if self.x.shape[0] != n or self.u.shape[0] != n:
            raise DataError(f"record counts differ: t={n}, x={self.x.shape[0]}, u={self.u.shape[0]}")
        if self.delta is not None and self.delta.shape != self.x.shape:
            raise DataError(f"delta shape {self.delta.shape} must match x shape {self.x.shape}")
        for name, arr in (("t", self.t), ("x", self.x), ("u", self.u), ("delta", self.delta)):
            if arr is not None and not np.all(np.isfinite(arr)):
                raise DataError(f"non-finite values in {name}")

    def __len__(self) -> int:
        return len(self.t)

    def subset(self, idx) -> "TrajectoryDataset":
        return TrajectoryDataset(
            t=self.t[idx], x=self.x[idx], u=self.u[idx],
            delta=None if self.delta is None else self.delta[idx])


def split_dataset(data: TrajectoryDataset, train_fraction: float,
                  rng: np.random.Generator) -> tuple[TrajectoryDataset, TrajectoryDataset]:
    """Global shuffle followed by a train/test split."""
    train, test = _split_index(len(data), train_fraction, rng)
    return data.subset(train), data.subset(test)


def _split_index(n: int, train_fraction: float, rng: np.random.Generator):
    """The train and test positions of :func:`split_dataset` over n records."""
    check("learning.train_fraction", train_fraction)
    idx = rng.permutation(n)
    cut = int(round(train_fraction * n))
    return idx[:cut], idx[cut:]


def _finite_theta(theta: np.ndarray) -> np.ndarray:
    """``theta``, or DataError if it has a non-finite coefficient."""
    if not np.isfinite(theta).all():
        raise DataError("theta has non-finite coefficients")
    return theta


@dataclass
class SeparatedModel:
    """Identified coefficients Theta with their basis configuration.

    Caches the structure matrices D (Chebyshev coefficients over
    monomials) and A (exosystem companion), which downstream observers
    need at every step, and the coefficients with D folded in,
    K[0, j, b] = sum_k Theta[0, k, b] D[k, j] with Theta viewed as
    (1, s2, s2), so that C(x) = K Pi(x).  Theta is one row of s1 = s2^2
    coefficients: the model estimates one channel.

    The monomials are those of the basis's time variable tau, which is
    t itself on a raw basis and 2 (t - lo) / (hi - lo) - 1 on a
    normalized one.  ``time_scale`` is d(tau)/dt, and A = time_scale *
    structure_matrices(s2).A, so that d/dt varsigma(tau(t)) = A varsigma.
    """

    theta: np.ndarray
    config: BasisConfig
    D: np.ndarray = field(init=False, repr=False)
    A: np.ndarray = field(init=False, repr=False)
    time_scale: float = field(init=False)
    K: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        if self.theta.shape[1] != self.config.s1:
            raise ConfigError(
                f"theta has {self.theta.shape[1]} columns, basis requires s1={self.config.s1}")
        if self.theta.shape[0] != 1:
            raise ConfigError(f"theta has {self.theta.shape[0]} rows; the model estimates "
                              "one channel, one row")
        _finite_theta(self.theta)
        lo, hi = self.config.t_box
        self.time_scale = 2.0 / (hi - lo) if self.config.normalize else 1.0
        self.D, A = structure_matrices(self.config.s2)
        self.A = self.time_scale * A
        s2 = self.config.s2
        self.K = np.einsum("ikb,kj->ijb", self.theta.reshape(1, s2, s2), self.D)

    def output_map(self, x) -> np.ndarray:
        """C(x) = Theta B(x) D, the observer output row, shape (1, s2)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (1,):
            raise ValueError(f"state must have shape (1,), got {x.shape}")
        return self.K @ self.config.pi_rows(x[None])[0]


@dataclass
class FitReport:
    """Diagnostics of one identification run."""

    train_mae: float
    test_mae: float
    gram_condition: float
    residual_sup: float

    def __post_init__(self):
        for name in ("train_mae", "test_mae", "gram_condition", "residual_sup"):
            _figure(name, getattr(self, name))


def _figure(name: str, v: float) -> float:
    """``v``, or NumericalError naming ``name`` if it is negative or not finite."""
    if v < 0 or not np.isfinite(v):
        raise NumericalError(f"{name} must be finite and non-negative, got {v}")
    return v


def _poly_derivative_window(tw: np.ndarray, xw: np.ndarray, center: int, order: int) -> np.ndarray:
    """Derivative at the window center from a least-squares polynomial fit."""
    tau = tw - tw[center]
    vand = np.vander(tau, order + 1, increasing=True)
    coef, *_ = np.linalg.lstsq(vand, xw, rcond=None)
    return coef[1]


def _plant_map(fn: Callable, x: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """Evaluate a batched plant map on rows x and broadcast it to ``shape``."""
    out = np.asarray(fn(x), dtype=float)
    try:
        return np.broadcast_to(out, shape)
    except ValueError:
        raise ConfigError(f"{name} returned shape {out.shape}, not broadcastable to {shape}") from None


def targets_from_trajectory(traj: TrajectoryDataset, f_x: Callable, f_u: Callable,
                            window: int = 9, fit_order: int = 3) -> TrajectoryDataset:
    """Recover disturbance targets from a sampled trajectory.

    For each interior sample, the state derivative is taken at the
    center of a sliding least-squares polynomial fit over ``window``
    samples, and the target is  delta = dx/dt - f_x(x) - f_u(x) u.
    On a uniform grid this is one Savitzky-Golay filter; a nonuniform
    grid is refitted window by window.  Edge samples are dropped.

    Parameters
    ----------
    traj : TrajectoryDataset
        Strictly time-ordered records.
    f_x, f_u : callable
        Batched plant mappings of dx/dt = f_x(x) + f_u(x) u + delta,
        called once on the kept states of shape (N, 1); a result that
        does not broadcast to (N, 1), resp. (N, 1, 1), raises ConfigError,
        so a state-independent map may return the unbatched (1,), resp.
        (1, 1).
    window : int
        Sliding window length, odd and larger than ``fit_order``.
    fit_order : int
        Polynomial degree of the local fit, >= 1.
    """
    check_window(window, fit_order)
    if len(traj) < window:
        raise DataError(f"trajectory has {len(traj)} samples, window needs {window}")
    dt = np.diff(traj.t)
    if np.any(dt <= 0):
        raise DataError("trajectory timestamps must be strictly increasing")

    half = window // 2
    keep = slice(half, len(traj) - half)
    if np.allclose(dt, dt[0], rtol=1e-9, atol=0.0):
        # Savitzky-Golay: the fit is linear in x, so fitting I gives every window's weights
        weights = _poly_derivative_window(traj.t[:window], np.eye(window), half, fit_order)
        deriv = sliding_window_view(traj.x, window, axis=0) @ weights
    else:
        wins = [slice(i - half, i + half + 1) for i in range(half, len(traj) - half)]
        deriv = np.array([_poly_derivative_window(traj.t[w], traj.x[w], half, fit_order) for w in wins])

    x, u = traj.x[keep], traj.u[keep]
    fu = _plant_map(f_u, x, x.shape + (1,), "f_u")
    delta = deriv - _plant_map(f_x, x, x.shape, "f_x") - (fu @ u[..., None])[..., 0]
    return TrajectoryDataset(t=traj.t[keep], x=x, u=u, delta=delta)


def fit_rls(data: TrajectoryDataset, config: BasisConfig, delta: float,
            test: Optional[TrajectoryDataset] = None) -> tuple[SeparatedModel, FitReport]:
    """Solve the regularized least-squares identification in closed form.

    Parameters
    ----------
    data : TrajectoryDataset
        Training records with disturbance targets.
    config : BasisConfig
        Basis shape.
    delta : float
        Ridge weight, > 0.
    test : TrajectoryDataset, optional
        Held-out records for the reported test error (training records
        are reused when absent).

    Returns
    -------
    (SeparatedModel, FitReport)

    Memory: one N x s1 design is alive at a time.  The training design
    is released once Theta and the training residuals are computed, and
    only then are the held-out rows featurized and scored.

    The fit is the factor of :func:`sweep` (design, Gram, equilibration
    and Cholesky factor) and its solve on the one target block, so
    ``learn`` and each sweep cell take the same arithmetic path.  The
    Gram's condition number and the training residuals are computed
    here alone: a sweep cell reports only its test MAE.
    """
    check("learning.delta", delta)
    if data.delta is None:
        raise DataError("training data carries no disturbance targets")

    feats, scale, chol, gram_eq = _factor(data.x, data.t, config, delta)
    theta = _solve(feats, scale, chol, data.delta)
    train_mae = float(_residuals(data.delta, feats @ theta.T).mean())
    model = SeparatedModel(theta=theta, config=config)
    # evaluate builds a second design of the held-out rows: freeing this one
    # first keeps the fit's peak at one design, the size that bounds N
    del feats
    test_mae, residual_sup = evaluate(model, test if test is not None else data)
    return model, FitReport(train_mae, test_mae, float(np.linalg.cond(gram_eq)), residual_sup)


def _factor(x: np.ndarray, t: np.ndarray, config: BasisConfig, delta: float):
    """The part of a ridge fit on the rows (x, t) that no target enters:
    (design, equilibration scale, Cholesky factor of the equilibrated
    regularized Gram, that Gram)."""
    if len(t) < 1:
        raise DataError("cannot fit on an empty dataset")
    # features that overflow are reported by the finite-Gram check below,
    # not by NumPy warnings; cholesky would factor them into NaN
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            feats = config.design_rows(x, t)                # rows are B_n @ xi_n
            gram = feats.T @ feats + delta * np.eye(config.s1)
    except MemoryError as exc:
        raise NumericalError(f"the N x s1 design and s1 x s1 Gram arrays do not fit in "
                             f"memory, N = {len(t)}, s1 = {config.s1} ({exc})") from None
    if not np.isfinite(gram).all():
        raise NumericalError("regularized Gram has non-finite entries (features overflow)")
    # symmetric diagonal equilibration keeps the Cholesky solve accurate
    # on raw (unnormalized) bases whose feature scales span many decades
    scale = 1.0 / np.sqrt(np.diag(gram))
    gram_eq = gram * scale[:, None] * scale[None, :]
    try:
        chol = np.linalg.cholesky(gram_eq)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"regularized Gram is not positive definite: {exc}") from exc
    return feats, scale, chol, gram_eq


def _solve(feats: np.ndarray, scale: np.ndarray, chol: np.ndarray,
           targets: np.ndarray) -> np.ndarray:
    """Theta (1, s1) fitted to ``targets`` (N, 1) on a factored design;
    DataError if it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = feats.T @ targets                             # = (sum delta_n xi_n^T B_n^T)^T
    half = np.linalg.solve(chol, scale[:, None] * rhs)
    return _finite_theta((scale[:, None] * np.linalg.solve(chol.T, half)).T)


def _residuals(targets: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """The row norms of targets - pred."""
    if len(targets) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    return np.linalg.norm(targets - pred, axis=1)


def evaluate(model: SeparatedModel, data: TrajectoryDataset) -> tuple[float, float]:
    """(mean, sup) of ||delta_i - Theta B(x_i) xi(t_i)|| over a dataset."""
    if data.delta is None:
        raise DataError("evaluation data carries no disturbance targets")
    resid = _residuals(data.delta, model.config.design_rows(data.x, data.t) @ model.theta.T)
    return float(resid.mean()), float(resid.max())


def synthesize_dataset(disturbance: Callable, x_box, t_box, n_samples: int,
                       rng: np.random.Generator, noise_std: float = 0.0) -> TrajectoryDataset:
    """Sample (x, t) uniformly over a box and record disturbance targets.

    ``disturbance`` is vectorized: fn(x, t) with x and t of shape (N,)
    returning (N,).  Measurement corruption during
    collection surfaces in the recorded targets: zero-mean Gaussian
    noise of standard deviation ``noise_std`` is added to delta.
    """
    check("learning.n_samples", n_samples, error=DataError)
    x, t = _draw(x_box, t_box, n_samples, rng)
    delta = _targets(disturbance, x, t)
    if noise_std > 0:
        delta = delta + rng.normal(0.0, noise_std, size=delta.shape)
    return TrajectoryDataset(t=t, x=x, u=np.zeros((n_samples, 1)), delta=delta)


def _draw(x_box, t_box, n_samples: int, rng: np.random.Generator):
    """(x, t) of :func:`synthesize_dataset`: n_samples points uniform over the box."""
    x = rng.uniform(*check_box(x_box, "basis.x_box"), size=(n_samples, 1))
    t = rng.uniform(*check_box(t_box, "basis.t_box"), size=n_samples)
    return x, t


def _targets(disturbance: Callable, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The disturbance on the rows (x, t), the state column passed as a vector."""
    return np.asarray(disturbance(x[:, 0], t), dtype=float)


# --- disturbance registry ---------------------------------------------------
#
# Each entry is a vectorized delta(x, t), built from its expression in
# (x, t), kept as ``fn.expr`` for closed loops, with its natural sampling
# box.  quad_drag_drift is the closed-loop benchmark: quadratic drag in the
# velocity plus a quadratic-in-time drift.

def _sin(v):
    """sin(v): ``math.sin`` on a Python float, so that closed loops stay on
    floats, and ``np.sin`` otherwise, so that arrays keep NumPy's bits.
    An infinite float gives nan, as ``np.sin`` does, not ``ValueError``."""
    if isinstance(v, float):
        try:
            return math.sin(v)
        except ValueError:
            return math.nan
    return np.sin(v)


def _vectorized(expr: str) -> Callable:
    """fn(x, t) evaluating ``expr``, which it keeps as ``fn.expr``."""
    fn = eval(f"lambda x, t: {expr}", {"_sin": _sin})
    fn.expr = expr
    return fn


NEWTON_V_BOX = (-10.0, 10.0)
NEWTON_T_BOX = (0.0, 100.0)

_REGISTRY: dict[str, dict] = {name: dict(fn=_vectorized(expr), x_box=x_box, t_box=t_box)
                              for name, expr, x_box, t_box in (
    ("sine_product", "_sin(x) * _sin(t)", (-2.0, 2.0), (0.0, 4.0)),
    ("cubic_drift", "x - x**3 / 12.0 - t**2 / 4.0", (-2.0, 2.0), (0.0, 4.0)),
    ("sine_cubic", "-_sin(x) * t**3 / 9.0", (-2.0, 2.0), (0.0, 4.0)),
    ("quad_drag_drift", "-x**2 + 50.0 - 10.0 * t - 0.5 * t**2", NEWTON_V_BOX, NEWTON_T_BOX))}


def disturbance(name: str, field: str = "learning.function") -> Callable:
    """A registered disturbance by name; an unknown one raises ConfigError naming ``field``."""
    if name not in _REGISTRY:
        raise ConfigError(f"{field}: unknown disturbance {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]["fn"]


def disturbance_box(name: str, field: str = "learning.function") -> tuple[tuple, tuple]:
    """Default (x_box, t_box) of a registered disturbance."""
    disturbance(name, field)
    return _REGISTRY[name]["x_box"], _REGISTRY[name]["t_box"]


@dataclass(frozen=True)
class LearningConfig:
    """The ``[basis]``, ``[learning]`` and ``[sweep]`` settings, each field
    the INI key of the same name, with their only defaults and range
    checks; each error names its ``section.field``.  An unset box (None)
    is, for each function, the box registered with it."""

    p: int = 2
    normalize: bool = False
    x_box: Optional[tuple] = None
    t_box: Optional[tuple] = None
    function: str = "quad_drag_drift"
    delta: float = 0.01
    n_samples: int = 10000
    train_fraction: float = 0.5
    window: int = 9
    fit_order: int = 3
    seed: int = 0
    noise_variance: float = 0.0
    functions: tuple = ("sine_product", "cubic_drift", "sine_cubic")
    p_values: tuple = (1, 2, 3, 4, 5, 6)
    noise_variances: tuple = (0.0, 0.01, 0.05, 0.1)

    def __post_init__(self):
        self.basis()            # checks learning.function, basis.p and the boxes
        for key in ("delta", "n_samples", "train_fraction", "noise_variance"):
            check(f"learning.{key}", getattr(self, key))
        check_window(self.window, self.fit_order)
        check("seed", self.seed, "learning.seed")
        for name in self.functions:
            disturbance_box(name, "sweep.functions")
        # a value repeated in the grid is one cell, and a zero noise variance
        # is +0, whose bits key the draw, the CSV cell and the resume alike
        object.__setattr__(self, "noise_variance", float(self.noise_variance) + 0.0)
        object.__setattr__(self, "functions", tuple(dict.fromkeys(self.functions)))
        object.__setattr__(self, "p_values", tuple(dict.fromkeys(
            check_order(p, "sweep.p_values") for p in self.p_values)))
        object.__setattr__(self, "noise_variances", tuple(dict.fromkeys(
            float(check("learning.noise_variance", v, "sweep.noise_variances")) + 0.0
            for v in self.noise_variances)))

    def boxes(self, function: str) -> tuple:
        """(x_box, t_box) of ``function``: each box set here, else the registered one."""
        x_box, t_box = disturbance_box(function)
        return self.x_box or x_box, self.t_box or t_box

    def basis(self) -> BasisConfig:
        """The basis that ``learn`` fits to ``function``."""
        return BasisConfig(self.p, 1, *self.boxes(self.function), self.normalize)


@dataclass
class SweepCell:
    """One grid cell of a sweep: its test MAE, or the ``error`` that failed it."""

    function: str
    p: int
    noise_variance: float
    test_mae: Optional[float] = None
    error: Optional[str] = None


def sweep(cfg: LearningConfig, done=frozenset()) -> list[SweepCell]:
    """Grid of identification runs over ``cfg.functions`` x ``cfg.p_values``
    x ``cfg.noise_variances``, without the (function, p, noise variance)
    keys in ``done``; cells are returned function-, then p-major.

    Each sampling box (``cfg.boxes``) draws ``cfg.n_samples`` points once and
    splits them by ``cfg.train_fraction``, from the generator stream keyed
    by (``cfg.seed``, "sweep"), so every function, order and noise level on
    it shares the points and the split.  A noise level s2 > 0 adds Gaussian
    noise of variance s2 to the training targets alone, from its own stream
    (``cfg.seed``, "sweep", the bits of s2).  Every cell is fitted with
    ``cfg.delta`` and ``cfg.normalize`` and scored against the clean targets
    of the held-out rows, the disturbance's values, so a cell depends only
    on its function, p and noise variance and the fields of ``cfg`` outside
    the grid.  Each disturbance is evaluated once.

    Per order, one factor (design, Gram, Cholesky factor) of the training
    rows serves every function and noise level of the box: each cell adds
    only its right-hand side and solves, and one test design, built after
    the training design is freed, scores every Theta: no cell builds a
    :class:`SeparatedModel`, and each computes only its test MAE.  A
    failure fails only the cells it reaches.
    """
    if not (cfg.functions and cfg.p_values and cfg.noise_variances):
        raise ConfigError("sweep.functions, sweep.p_values and sweep.noise_variances "
                          "must be non-empty")
    todo = [(f, p, s2) for f in cfg.functions for p in cfg.p_values
            for s2 in cfg.noise_variances if (f, p, s2) not in done]
    by_box: dict[tuple, list[tuple]] = {}
    for key in todo:
        by_box.setdefault(cfg.boxes(key[0]), []).append(key)
    cells = {}
    for boxes, keys in by_box.items():
        cells.update(_sweep_box(cfg, boxes, keys))
    return [cells[key] for key in todo]


def _sweep_box(cfg: LearningConfig, boxes: tuple, keys: list) -> dict[tuple, SweepCell]:
    """The cells ``keys``, (function, p, noise variance) in the order of
    :func:`sweep`, of functions that all sample the box ``boxes``."""
    cells = {}

    def fail(failed, exc):      # a failed cell must not abort the grid
        error = f"{type(exc).__name__}: {exc}"
        cells.update({key: SweepCell(*key, error=error) for key in failed})

    try:        # the key (seed, "sweep") is the noise-free level's (seed, "sweep", 0)
        rng = rng_stream(cfg.seed, "sweep")
        x, t = _draw(*boxes, cfg.n_samples, rng)
        train, test = _split_index(cfg.n_samples, cfg.train_fraction, rng)
    except Exception as exc:    # a failed draw fails its box
        fail(keys, exc)
        return cells
    u, clean = np.zeros((cfg.n_samples, 1)), {}
    for f in dict.fromkeys(f for f, _, _ in keys):
        try:        # the checks of synthesize_dataset, with their messages
            delta = TrajectoryDataset(t=t, x=x, u=u, delta=_targets(disturbance(f), x, t)).delta
            clean[f] = delta[train], delta[test]
        except Exception as exc:
            fail([key for key in keys if key[0] == f], exc)
    train_x, train_t, test_x, test_t = x[train], t[train], x[test], t[test]
    # the full draw is freed before any design is built
    x = t = u = delta = train = test = None
    orders: dict[int, dict[float, list[str]]] = {}      # p: {s2: functions}
    for f, p, s2 in keys:
        if f in clean:
            orders.setdefault(p, {}).setdefault(s2, []).append(f)
    for p, levels in orders.items():
        try:
            basis = BasisConfig(p, 1, *boxes, cfg.normalize)
            feats, scale, chol, _ = _factor(train_x, train_t, basis, cfg.delta)
        except Exception as exc:
            fail([(f, p, s2) for s2, names in levels.items() for f in names], exc)
            continue
        fitted = {}
        for s2, names in levels.items():
            try:    # keyed by the exact bits of s2, whatever grid the level sits in
                noise = None if s2 == 0 else rng_stream(
                    cfg.seed, "sweep", int(np.float64(s2).view(np.uint64))).normal(
                    0.0, float(np.sqrt(s2)), size=(len(train_t), 1))
            except Exception as exc:
                fail([(f, p, s2) for f in names], exc)
                continue
            for f in names:
                try:    # finite clean targets may still overflow with their noise
                    targets = clean[f][0] if noise is None else clean[f][0] + noise
                    if not np.isfinite(targets).all():
                        raise DataError("non-finite values in delta")
                    fitted[f, p, s2] = _solve(feats, scale, chol, targets)
                except Exception as exc:
                    fail([(f, p, s2)], exc)
            noise = targets = None          # freed before the next order's design
        # one N x s1 design at a time: the test design follows the freed training one
        del feats
        try:
            design = basis.design_rows(test_x, test_t)
        except Exception as exc:
            fail(fitted, exc)
            continue
        for (f, _, s2), theta in fitted.items():
            try:
                cells[f, p, s2] = SweepCell(f, p, s2, _figure("test_mae", float(
                    _residuals(clean[f][1], design @ theta.T).mean())))
            except Exception as exc:
                fail([(f, p, s2)], exc)
        del design
    return cells
