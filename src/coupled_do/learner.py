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
:func:`sweep` takes only it: the function, the seed, the grid of orders and
noise levels, the sampling boxes and the fit settings are its fields.  Its
range checks are the ones that the functions here apply to their arguments.
"""

from __future__ import annotations

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
        self.x = np.asarray(self.x, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.x.ndim == 1:
            self.x = self.x[:, None]
        if self.u.ndim == 1:
            self.u = self.u[:, None]
        n = len(self.t)
        if self.x.shape[0] != n or self.u.shape[0] != n:
            raise DataError(f"record counts differ: t={n}, x={self.x.shape[0]}, u={self.u.shape[0]}")
        if self.delta is not None:
            self.delta = np.asarray(self.delta, dtype=float)
            if self.delta.ndim == 1:
                self.delta = self.delta[:, None]
            if self.delta.shape != self.x.shape:
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
    check("learning.train_fraction", train_fraction)
    idx = rng.permutation(len(data))
    cut = int(round(train_fraction * len(data)))
    return data.subset(idx[:cut]), data.subset(idx[cut:])


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
        if not np.isfinite(self.theta).all():
            raise DataError("theta has non-finite coefficients")
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
    """
    check("learning.delta", delta)
    if len(data) < 1:
        raise DataError("cannot fit on an empty dataset")
    if data.delta is None:
        raise DataError("training data carries no disturbance targets")
    if data.n != config.n:
        raise ConfigError(f"data has n={data.n}, basis expects n={config.n}")

    # features that overflow are reported by the finite-Gram check below,
    # not by NumPy warnings; cholesky would factor them into NaN
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            feats = config.design_rows(data.x, data.t)      # rows are B_n @ xi_n
            gram = feats.T @ feats + delta * np.eye(config.s1)
            rhs = feats.T @ data.delta                      # = (sum delta_n xi_n^T B_n^T)^T
    except MemoryError as exc:
        raise NumericalError(f"the N x s1 design and s1 x s1 Gram arrays do not fit in "
                             f"memory, N = {len(data)}, s1 = {config.s1} ({exc})") from None
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
    half = np.linalg.solve(chol, scale[:, None] * rhs)
    theta = (scale[:, None] * np.linalg.solve(chol.T, half)).T
    cond = float(np.linalg.cond(gram_eq))

    model = SeparatedModel(theta=theta, config=config)
    train_mae = float(np.linalg.norm(data.delta - feats @ theta.T, axis=1).mean())
    # evaluate builds a second design of the held-out rows: freeing this one
    # first keeps the fit's peak at one design, the size that bounds N
    del feats
    test_mae, residual_sup = evaluate(model, test if test is not None else data)
    report = FitReport(
        train_mae=train_mae,
        test_mae=test_mae,
        gram_condition=cond,
        residual_sup=residual_sup,
    )
    return model, report


def evaluate(model: SeparatedModel, data: TrajectoryDataset) -> tuple[float, float]:
    """(mean, sup) of ||delta_i - Theta B(x_i) xi(t_i)|| over a dataset."""
    if len(data) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    if data.delta is None:
        raise DataError("evaluation data carries no disturbance targets")
    pred = model.config.design_rows(data.x, data.t) @ model.theta.T
    resid = np.linalg.norm(data.delta - pred, axis=1)
    return float(resid.mean()), float(resid.max())


def synthesize_dataset(disturbance: Callable, x_box, t_box, n_samples: int,
                       rng: np.random.Generator, noise_std: float = 0.0) -> TrajectoryDataset:
    """Sample (x, t) uniformly over a box and record disturbance targets.

    ``disturbance`` is vectorized: fn(x, t) with x of shape (N,) or
    (N, n) returning (N,) or (N, n).  Measurement corruption during
    collection surfaces in the recorded targets: zero-mean Gaussian
    noise of standard deviation ``noise_std`` is added to delta.
    """
    check("learning.n_samples", n_samples, error=DataError)
    x_box, t_box = check_box(x_box, "basis.x_box"), check_box(t_box, "basis.t_box")[0]
    x = rng.uniform(x_box[:, 0], x_box[:, 1], size=(n_samples, x_box.shape[0]))
    t = rng.uniform(t_box[0], t_box[1], size=n_samples)
    delta = np.asarray(disturbance(x[:, 0] if x.shape[1] == 1 else x, t), dtype=float)
    if noise_std > 0:
        delta = delta + rng.normal(0.0, noise_std, size=delta.shape)
    return TrajectoryDataset(t=t, x=x, u=np.zeros((n_samples, 1)), delta=delta)


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
        from .sim import disturbance_box        # sim imports this module
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
        from .sim import disturbance_box
        x_box, t_box = disturbance_box(function)
        return self.x_box or x_box, self.t_box or t_box

    def basis(self) -> BasisConfig:
        """The basis that ``learn`` fits to ``function``."""
        return BasisConfig(self.p, 1, *self.boxes(self.function), self.normalize)


@dataclass
class SweepCell:
    """One grid cell of a sweep; ``error`` is set when the fit failed."""

    p: int
    noise_variance: float
    report: Optional[FitReport] = None
    error: Optional[str] = None


def _run_cell(cfg: LearningConfig, p: int, sigma2: float, train: TrajectoryDataset,
              test: TrajectoryDataset) -> SweepCell:
    try:
        basis = BasisConfig(p, train.n, *cfg.boxes(cfg.function), cfg.normalize)
        _, report = fit_rls(train, basis, cfg.delta, test=test)
        return SweepCell(p=p, noise_variance=sigma2, report=report)
    except Exception as exc:  # a failed cell must not abort the grid
        return SweepCell(p=p, noise_variance=sigma2, error=f"{type(exc).__name__}: {exc}")


def sweep(cfg: LearningConfig) -> list[SweepCell]:
    """Grid of identification runs of ``cfg.function`` over the orders
    ``cfg.p_values`` and the noise levels ``cfg.noise_variances``.

    Each noise level draws ``cfg.n_samples`` points from
    ``cfg.boxes(cfg.function)`` and splits them by ``cfg.train_fraction``,
    from a generator stream keyed by (``cfg.seed``, noise variance); every
    order is fitted with ``cfg.delta`` and ``cfg.normalize`` and scored on
    that one draw, so a cell depends only on its p, its noise variance and
    the fields of ``cfg`` outside the grid.  Cells are returned p-major.
    """
    from .sim import disturbance        # sim imports this module
    p_values, noise_variances = cfg.p_values, cfg.noise_variances
    if not p_values or not noise_variances:
        raise ConfigError("sweep.p_values and sweep.noise_variances must be non-empty")
    fn = disturbance(cfg.function)
    x_box, t_box = cfg.boxes(cfg.function)
    by_level = []
    for s2 in noise_variances:
        # keyed by the exact bits of s2, so all orders at one noise level
        # share one dataset and split, whatever grid the cell sits in
        rng = rng_stream(cfg.seed, "sweep", int(np.float64(s2).view(np.uint64)))
        try:
            data = synthesize_dataset(fn, x_box, t_box, cfg.n_samples, rng,
                                      noise_std=float(np.sqrt(s2)))
            train, test = split_dataset(data, cfg.train_fraction, rng)
            # test error is measured against the clean disturbance values
            clean = fn(test.x[:, 0] if test.x.shape[1] == 1 else test.x, test.t)
            test = TrajectoryDataset(t=test.t, x=test.x, u=test.u, delta=clean)
            by_level.append([_run_cell(cfg, p, s2, train, test) for p in p_values])
        except Exception as exc:  # a failed draw fails the cells of its own level only
            error = f"{type(exc).__name__}: {exc}"
            by_level.append([SweepCell(p=p, noise_variance=s2, error=error) for p in p_values])
    return [level[i] for i in range(len(p_values)) for level in by_level]
