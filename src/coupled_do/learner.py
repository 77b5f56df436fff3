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
1.3e11 for a p = 6 fit of ``sine_cubic``), and Cholesky factors from two
builds, which differ in their last bits, move Theta by up to 3e-5
relative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import BasisConfig, structure_matrices
from .errors import ConfigError, DataError, NumericalError


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
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
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
    theta_error: Optional[float] = None

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
    if window % 2 == 0 or window <= fit_order or fit_order < 1:
        raise ConfigError(f"need odd window > fit_order >= 1, got window={window}, fit_order={fit_order}")
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
            test: Optional[TrajectoryDataset] = None,
            theta_true: Optional[np.ndarray] = None) -> tuple[SeparatedModel, FitReport]:
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
    theta_true : ndarray, optional
        Reference coefficients; when given, the squared Frobenius error
        is recorded in the report.

    Returns
    -------
    (SeparatedModel, FitReport)
    """
    if not delta > 0:
        raise ConfigError(f"ridge weight must be > 0, got {delta}")
    if len(data) < 1:
        raise DataError("cannot fit on an empty dataset")
    if data.delta is None:
        raise DataError("training data carries no disturbance targets")
    if data.n != config.n:
        raise ConfigError(f"data has n={data.n}, basis expects n={config.n}")

    # features that overflow are reported by the finite-Gram check below,
    # not by NumPy warnings; cholesky would factor them into NaN
    with np.errstate(over="ignore", invalid="ignore"):
        feats = config.design_rows(data.x, data.t)      # rows are B_n @ xi_n
        gram = feats.T @ feats + delta * np.eye(config.s1)
        rhs = feats.T @ data.delta                      # = (sum delta_n xi_n^T B_n^T)^T
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
    train_resid = np.linalg.norm(data.delta - feats @ theta.T, axis=1)
    test_mae, residual_sup = evaluate(model, test if test is not None else data)
    report = FitReport(
        train_mae=float(train_resid.mean()),
        test_mae=test_mae,
        gram_condition=cond,
        residual_sup=residual_sup,
        theta_error=None if theta_true is None
        else float(np.sum((np.atleast_2d(theta_true) - theta) ** 2)),
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
    if n_samples < 1:
        raise DataError(f"need at least one sample, got {n_samples}")
    x_box = np.atleast_2d(np.asarray(x_box, dtype=float))
    t_box = np.asarray(t_box, dtype=float).ravel()
    if np.any(x_box[:, 0] >= x_box[:, 1]) or t_box[0] >= t_box[1]:
        raise ConfigError("sampling boxes must have lo < hi")
    x = rng.uniform(x_box[:, 0], x_box[:, 1], size=(n_samples, x_box.shape[0]))
    t = rng.uniform(t_box[0], t_box[1], size=n_samples)
    delta = np.asarray(disturbance(x[:, 0] if x.shape[1] == 1 else x, t), dtype=float)
    if noise_std > 0:
        delta = delta + rng.normal(0.0, noise_std, size=delta.shape)
    return TrajectoryDataset(t=t, x=x, u=np.zeros((n_samples, 1)), delta=delta)


@dataclass(frozen=True)
class SweepConfig:
    """Shared setup of a (p, noise variance) learning sweep."""

    disturbance: Callable
    x_box: tuple = (-2.0, 2.0)
    t_box: tuple = (0.0, 4.0)
    n_samples: int = 10000
    train_fraction: float = 0.5
    delta: float = 0.01
    normalize: bool = True
    seed: int = 0


@dataclass
class SweepCell:
    """One grid cell of a sweep; ``error`` is set when the fit failed."""

    p: int
    noise_variance: float
    report: Optional[FitReport] = None
    error: Optional[str] = None


def _run_cell(base: SweepConfig, p: int, sigma2: float, train: TrajectoryDataset,
              test: TrajectoryDataset) -> SweepCell:
    try:
        cfg = BasisConfig(p=p, n=train.n, x_box=base.x_box, t_box=base.t_box,
                          normalize=base.normalize)
        _, report = fit_rls(train, cfg, base.delta, test=test)
        return SweepCell(p=p, noise_variance=sigma2, report=report)
    except Exception as exc:  # a failed cell must not abort the grid
        return SweepCell(p=p, noise_variance=sigma2, error=f"{type(exc).__name__}: {exc}")


def sweep(base: SweepConfig, p_values: Sequence[int],
          noise_variances: Sequence[float]) -> list[SweepCell]:
    """Grid of identification runs over polynomial order and noise level.

    Each noise level draws one dataset and split, from a generator
    stream keyed by (``base.seed``, noise variance), on which every order
    is fitted and scored, so a cell depends only on (``base``, p, noise
    variance), not on the grid around it.  Cells are returned p-major.
    """
    if not p_values or not len(noise_variances):
        raise ConfigError("p_values and noise_variances must be non-empty")
    by_level = []
    for s2 in noise_variances:
        # keyed by the exact bits of s2, so all orders at one noise level
        # share one dataset and split, whatever grid the cell sits in
        rng = rng_stream(base.seed, "sweep", int(np.float64(s2).view(np.uint64)))
        try:
            data = synthesize_dataset(base.disturbance, base.x_box, base.t_box,
                                      base.n_samples, rng, noise_std=float(np.sqrt(s2)))
            train, test = split_dataset(data, base.train_fraction, rng)
            # test error is measured against the clean disturbance values
            clean = base.disturbance(test.x[:, 0] if test.x.shape[1] == 1 else test.x, test.t)
            test = TrajectoryDataset(t=test.t, x=test.x, u=test.u, delta=clean)
            by_level.append([_run_cell(base, p, s2, train, test) for p in p_values])
        except Exception as exc:  # a failed draw fails the cells of its own level only
            error = f"{type(exc).__name__}: {exc}"
            by_level.append([SweepCell(p=p, noise_variance=s2, error=error) for p in p_values])
    return [level[i] for i in range(len(p_values)) for level in by_level]
