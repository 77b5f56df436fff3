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
of the ``fit_rls`` call on its data.

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
    """Time-stamped samples of (t, x, u) with optional disturbance targets.

    Attributes
    ----------
    t : ndarray, shape (N,)
        Sample times.  Strictly increasing when the records form a
        trajectory (required by :func:`targets_from_trajectory`);
        scrambled training sets carry arbitrary order.
    x : ndarray, shape (N, n)
    u : ndarray, shape (N, o)
    delta : ndarray, shape (N, n), optional
        Disturbance targets for learning and evaluation.
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
                setattr(self, name, arr[:, None] if arr.ndim == 1 else arr)
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

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def o(self) -> int:
        return self.u.shape[1]

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
    K[i, j, b] = sum_k Theta[i, k, b] D[k, j] with Theta viewed as
    (n, s2, (p+1)^n), so that C(x) = K Pi(x).

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
        if self.theta.shape[0] != self.config.n:
            raise ConfigError(
                f"theta has {self.theta.shape[0]} rows, basis requires n={self.config.n}")
        _finite_theta(self.theta)
        lo, hi = self.config.t_box
        self.time_scale = 2.0 / (hi - lo) if self.config.normalize else 1.0
        self.D, A = structure_matrices(self.config.s2)
        self.A = self.time_scale * A
        theta = self.theta.reshape(self.n, self.config.s2, self.config.state_block)
        self.K = np.einsum("ikb,kj->ijb", theta, self.D)

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    def output_map(self, x) -> np.ndarray:
        """C(x) = Theta B(x) D, the observer output matrix, shape (n, s2)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.n,):
            raise ValueError(f"state must have shape ({self.n},), got {x.shape}")
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
            v = getattr(self, name)
            if v < 0 or not np.isfinite(v):
                raise NumericalError(f"{name} must be finite and non-negative, got {v}")


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
        called once on the kept states of shape (N, n); a result that
        does not broadcast to (N, n), resp. (N, n, o), raises ConfigError,
        so a state-independent map may return the unbatched (n,), resp.
        (n, o).
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
    fu = _plant_map(f_u, x, x.shape + (traj.o,), "f_u")
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
        Basis shape; data dimensions must match.
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

    The fit is the factor of :func:`sweep` (design, Gram, equilibration,
    Cholesky factor and condition) and its solve on the one target block,
    so ``learn`` and each sweep cell take the same arithmetic path.
    """
    check("learning.delta", delta)
    if data.delta is None:
        raise DataError("training data carries no disturbance targets")
    if data.n != config.n:
        raise ConfigError(f"data has n={data.n}, basis expects n={config.n}")

    feats, scale, chol, cond = _factor(data.x, data.t, config, delta)
    theta, train_mae = _solve(feats, scale, chol, data.delta)
    model = SeparatedModel(theta=theta, config=config)
    # evaluate builds a second design of the held-out rows: freeing this one
    # first keeps the fit's peak at one design, the size that bounds N
    del feats
    test_mae, residual_sup = evaluate(model, test if test is not None else data)
    return model, FitReport(train_mae, test_mae, cond, residual_sup)


def _factor(x: np.ndarray, t: np.ndarray, config: BasisConfig, delta: float):
    """The part of a ridge fit on the rows (x, t) that no target enters:
    (design, equilibration scale, Cholesky factor of the equilibrated
    regularized Gram, that Gram's condition number)."""
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
    return feats, scale, chol, float(np.linalg.cond(gram_eq))


def _solve(feats: np.ndarray, scale: np.ndarray, chol: np.ndarray,
           targets: np.ndarray) -> tuple[np.ndarray, float]:
    """Theta (n, s1) fitted to ``targets`` (N, n) on a factored design, and
    its train MAE; DataError if Theta is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = feats.T @ targets                             # = (sum delta_n xi_n^T B_n^T)^T
    half = np.linalg.solve(chol, scale[:, None] * rhs)
    theta = _finite_theta((scale[:, None] * np.linalg.solve(chol.T, half)).T)
    return theta, _residuals(targets, feats @ theta.T)[0]


def _residuals(targets: np.ndarray, pred: np.ndarray) -> tuple[float, float]:
    """(mean, sup) of the row norms of targets - pred."""
    if len(targets) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    resid = np.linalg.norm(targets - pred, axis=1)
    return float(resid.mean()), float(resid.max())


def evaluate(model: SeparatedModel, data: TrajectoryDataset) -> tuple[float, float]:
    """(mean, sup) of ||delta_i - Theta B(x_i) xi(t_i)|| over a dataset."""
    if data.delta is None:
        raise DataError("evaluation data carries no disturbance targets")
    return _residuals(data.delta, model.config.design_rows(data.x, data.t) @ model.theta.T)


def synthesize_dataset(disturbance: Callable, x_box, t_box, n_samples: int,
                       rng: np.random.Generator, noise_std: float = 0.0) -> TrajectoryDataset:
    """Sample (x, t) uniformly over a box and record disturbance targets.

    ``disturbance`` is vectorized: fn(x, t) with x of shape (N,) or
    (N, n) returning (N,) or (N, n).  Measurement corruption during
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
    x_box, t_box = check_box(x_box, "basis.x_box"), check_box(t_box, "basis.t_box")[0]
    x = rng.uniform(x_box[:, 0], x_box[:, 1], size=(n_samples, x_box.shape[0]))
    t = rng.uniform(t_box[0], t_box[1], size=n_samples)
    return x, t


def _targets(disturbance: Callable, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The disturbance on the rows (x, t), a 1-D state passed as a column."""
    return np.asarray(disturbance(x[:, 0] if x.shape[1] == 1 else x, t), dtype=float)


# --- disturbance registry ---------------------------------------------------
#
# Each entry is a vectorized delta(x, t) with its natural sampling box.
# quad_drag_drift is the closed-loop benchmark: quadratic drag in the
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


NEWTON_V_BOX = (-10.0, 10.0)
NEWTON_T_BOX = (0.0, 100.0)

_REGISTRY: dict[str, dict] = {
    "sine_product": dict(
        fn=lambda x, t: _sin(x) * _sin(t),
        x_box=(-2.0, 2.0), t_box=(0.0, 4.0)),
    "cubic_drift": dict(
        fn=lambda x, t: x - x**3 / 12.0 - t**2 / 4.0,
        x_box=(-2.0, 2.0), t_box=(0.0, 4.0)),
    "sine_cubic": dict(
        fn=lambda x, t: -_sin(x) * t**3 / 9.0,
        x_box=(-2.0, 2.0), t_box=(0.0, 4.0)),
    "quad_drag_drift": dict(
        fn=lambda v, t: -v**2 + 50.0 - 10.0 * t - 0.5 * t**2,
        x_box=NEWTON_V_BOX, t_box=NEWTON_T_BOX),
}


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
    """One grid cell of a sweep; ``error`` is set when the fit failed."""

    function: str
    p: int
    noise_variance: float
    report: Optional[FitReport] = None
    error: Optional[str] = None


def sweep(cfg: LearningConfig, done=frozenset()) -> list[SweepCell]:
    """Grid of identification runs over ``cfg.functions`` x ``cfg.p_values``
    x ``cfg.noise_variances``, without the (function, p, noise variance)
    keys in ``done``; cells are returned function-, then p-major.

    Each noise level draws ``cfg.n_samples`` points from a function's
    ``cfg.boxes`` and splits them by ``cfg.train_fraction``, from a
    generator stream keyed by (``cfg.seed``, noise variance); the targets
    get noise of their own shape, as in :func:`synthesize_dataset`.  Every
    order is fitted with ``cfg.delta`` and ``cfg.normalize`` and scored
    against the clean targets of that one draw, the disturbance's values
    before the noise, so a cell depends only on its function, p and noise
    variance and the fields of ``cfg`` outside the grid.  Each function's
    disturbance is evaluated once per noise level.

    Functions whose box and target shape agree draw the same points, noise
    and split, so they share them: per (noise variance, p) one factor
    (design, Gram, Cholesky factor, condition) serves all of them, each
    function adds only its right-hand side, solves and scores, and one
    test design, built after the training design is freed, scores them
    all with each Theta as it is solved: no cell builds a
    :class:`SeparatedModel`.  A failure fails only the cells it reaches.
    """
    if not (cfg.functions and cfg.p_values and cfg.noise_variances):
        raise ConfigError("sweep.functions, sweep.p_values and sweep.noise_variances "
                          "must be non-empty")
    todo = [(f, p, s2) for f in cfg.functions for p in cfg.p_values
            for s2 in cfg.noise_variances if (f, p, s2) not in done]
    by_box: dict[tuple, list[str]] = {}
    for f in cfg.functions:
        by_box.setdefault(cfg.boxes(f), []).append(f)
    cells = {}
    for boxes, functions in by_box.items():
        for s2 in cfg.noise_variances:
            orders = {f: [p for p in cfg.p_values if (f, p, s2) not in done]
                      for f in functions}
            orders = {f: ps for f, ps in orders.items() if ps}
            if orders:
                cells.update(_sweep_level(cfg, boxes, s2, orders))
    return [cells[key] for key in todo]


def _sweep_level(cfg: LearningConfig, boxes: tuple, s2: float,
                 orders: dict[str, list[int]]) -> dict[tuple, SweepCell]:
    """The cells at noise level ``s2`` of the functions in ``orders`` (name:
    the orders to fit), which share the sampling box ``boxes``."""
    cells = {}

    def fail(f, ps, exc):       # a failed cell must not abort the grid
        error = f"{type(exc).__name__}: {exc}"
        cells.update({(f, p, s2): SweepCell(f, p, s2, error=error) for p in ps})

    try:
        failed, groups = _level_splits(cfg, boxes, s2, list(orders))
    except Exception as exc:    # a failed draw fails the cells of its own level only
        for f, ps in orders.items():
            fail(f, ps, exc)
        return cells
    for f, exc in failed.items():
        fail(f, orders[f], exc)
    for train_x, train_t, test_x, test_t, targets in groups:
        for p in cfg.p_values:
            names = [f for f in targets if p in orders[f]]
            if not names:
                continue
            try:
                basis = BasisConfig(p, train_x.shape[1], *boxes, cfg.normalize)
                feats, scale, chol, cond = _factor(train_x, train_t, basis, cfg.delta)
            except Exception as exc:
                for f in names:
                    fail(f, [p], exc)
                continue
            fitted = {}
            for f in names:
                try:
                    fitted[f] = _solve(feats, scale, chol, targets[f][0])
                except Exception as exc:
                    fail(f, [p], exc)
            # one N x s1 design at a time: the test design follows the freed training one
            del feats
            try:
                design = basis.design_rows(test_x, test_t)
            except Exception as exc:
                for f in fitted:
                    fail(f, [p], exc)
                continue
            for f, (theta, train_mae) in fitted.items():
                try:
                    test_mae, residual_sup = _residuals(targets[f][1], design @ theta.T)
                    cells[f, p, s2] = SweepCell(f, p, s2, report=FitReport(
                        train_mae, test_mae, cond, residual_sup))
                except Exception as exc:
                    fail(f, [p], exc)
            del design
    return cells


def _level_splits(cfg: LearningConfig, boxes: tuple, s2: float, names: list[str]):
    """The draw of :func:`sweep` at noise level ``s2`` over ``boxes``, split for
    each function in ``names`` as :func:`synthesize_dataset` and
    :func:`split_dataset` would: ({name: the exception that fails it},
    [(train x, train t, test x, test t, {name: (train targets, clean test
    targets)})], one entry per target shape).  The full draw is freed on
    return, before any design is built."""
    # keyed by the exact bits of s2, so all cells at one noise level share
    # one dataset and split, whatever grid they sit in
    rng = rng_stream(cfg.seed, "sweep", int(np.float64(s2).view(np.uint64)))
    x, t = _draw(*boxes, cfg.n_samples, rng)
    drawn = rng.bit_generator.state
    u = np.zeros((cfg.n_samples, 1))
    noise_std = float(np.sqrt(s2))
    failed, by_shape = {}, {}
    for f in names:
        try:
            delta = _targets(disturbance(f), x, t)
            by_shape.setdefault(delta.shape, {})[f] = delta
        except Exception as exc:
            failed[f] = exc
    groups = []
    for shape, deltas in by_shape.items():
        rng.bit_generator.state = drawn     # the noise and split of this target shape
        noise = rng.normal(0.0, noise_std, size=shape) if noise_std > 0 else None
        train, test = _split_index(cfg.n_samples, cfg.train_fraction, rng)
        targets = {}
        for f, delta in deltas.items():
            try:       # the checks of synthesize_dataset, with their messages
                noisy = TrajectoryDataset(
                    t=t, x=x, u=u, delta=delta if noise is None else delta + noise).delta
            except Exception as exc:
                failed[f] = exc
                continue
            # test errors are measured against the clean draw: finite noisy
            # targets have finite clean ones of the same shape
            targets[f] = noisy[train], delta.reshape(noisy.shape)[test]
        groups.append((x[train], t[train], x[test], t[test], targets))
    return failed, groups
