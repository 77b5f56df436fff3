"""Plant models, reference tracking scenarios, and dataset synthesis.

The benchmark plant is a second-order point mass

    d(eta)/dt = v,      m dv/dt = u + delta(v, t),

tracked with a PD controller plus feedforward disturbance compensation.
The observers only see the velocity channel (n = 1, f_x = 0,
f_u = 1/m), which is where the coupled disturbance enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .learner import SeparatedModel, TrajectoryDataset, rng_stream, synthesize_dataset
from .observer import FirstOrderDo, Hodo


def rk4_step(f: Callable, state: np.ndarray, t: float, dt: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta update of dstate/dt = f(t, state)."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    k1 = f(t, state)
    k2 = f(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = f(t + dt, state + dt * k3)
    out = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise NumericalError(f"integration produced non-finite state at t={t}")
    return out


def pd_control(eta: float, v: float, eta_d: float, eta_d_dot: float,
               k_eta: float, k_v: float, delta_hat: float = 0.0) -> float:
    """PD tracking law with feedforward disturbance cancellation:
    u = k_eta (eta_d - eta) + k_v (eta_d_dot - v) - delta_hat."""
    return k_eta * (eta_d - eta) + k_v * (eta_d_dot - v) - delta_hat


# --- disturbance registry ---------------------------------------------------
#
# Each entry is a vectorized delta(x, t) with its natural sampling box.
# quad_drag_drift is the closed-loop benchmark: quadratic drag in the
# velocity plus a quadratic-in-time drift.

NEWTON_V_BOX = (-10.0, 10.0)
NEWTON_T_BOX = (0.0, 100.0)

# Coefficient vector reported alongside this benchmark; kept for
# comparison only.  The direct basis projection (oracles module) gives
# 49.25 and -0.25 in the first and seventh entries instead, and fits
# reproduce the projection, so the projection is authoritative.
NEWTON_REFERENCE_THETA = np.array([49.75, 0.0, -0.5, -10.0, 0.0, 0.0, 0.25, 0.0, 0.0])

_REGISTRY: dict[str, dict] = {
    "sine_product": dict(
        fn=lambda x, t: np.sin(x) * np.sin(t),
        x_box=(-2.0, 2.0), t_box=(0.0, 4.0)),
    "cubic_drift": dict(
        fn=lambda x, t: x - x**3 / 12.0 - t**2 / 4.0,
        x_box=(-2.0, 2.0), t_box=(0.0, 4.0)),
    "sine_cubic": dict(
        fn=lambda x, t: -np.sin(x) * t**3 / 9.0,
        x_box=(-2.0, 2.0), t_box=(0.0, 4.0)),
    "quad_drag_drift": dict(
        fn=lambda v, t: -v**2 + 50.0 - 10.0 * t - 0.5 * t**2,
        x_box=NEWTON_V_BOX, t_box=NEWTON_T_BOX),
}


def disturbance(name: str) -> Callable:
    """Look up a registered disturbance function by name."""
    try:
        return _REGISTRY[name]["fn"]
    except KeyError:
        raise ConfigError(f"unknown disturbance {name!r}; known: {sorted(_REGISTRY)}")


def disturbance_box(name: str) -> tuple[tuple, tuple]:
    """Default (x_box, t_box) of a registered disturbance."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown disturbance {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]["x_box"], _REGISTRY[name]["t_box"]


def registered_disturbances() -> list[str]:
    return sorted(_REGISTRY)


@dataclass
class Plant:
    """Observer-facing channel description: dx/dt = f_x(x) + f_u(x) u + delta.

    The maps are batched: f_x maps states (..., n) to (..., n) and f_u
    to (..., n, o).  A state-independent map may return the unbatched
    (n,) or (n, o), which batch callers ``np.broadcast_to`` full shape.
    """

    n: int
    o: int
    f_x: Callable
    f_u: Callable


def newton_velocity_channel(mass: float = 1.0) -> Plant:
    """The velocity equation of the point mass: dv/dt = u/m + delta/m."""
    return Plant(n=1, o=1,
                 f_x=lambda x: np.zeros(1),
                 f_u=lambda x: np.full((1, 1), 1.0 / mass))


def generate_training_run(name: str, ranges=None, n_samples: int = 10000,
                          seed: int = 0, noise_std: float = 0.0) -> TrajectoryDataset:
    """Synthesize an identification dataset for a registered disturbance.

    Samples (x, t) uniformly over the given or default box and records
    the disturbance value at each sample (optionally corrupted, see
    :func:`coupled_do.learner.synthesize_dataset`).  Trajectory-based
    target recovery is handled separately by ``targets_from_trajectory``.
    """
    fn = disturbance(name)
    x_box, t_box = disturbance_box(name)
    if ranges is not None:
        x_box, t_box = ranges
    rng = rng_stream(seed, "dataset", 0)
    return synthesize_dataset(fn, x_box, t_box, n_samples, rng, noise_std=noise_std)


# --- closed-loop scenario ---------------------------------------------------

def _sin_half_reference(t):
    return np.sin(0.5 * t), 0.5 * np.cos(0.5 * t)


@dataclass
class ScenarioConfig:
    """Closed-loop tracking run description.

    ``mode`` selects the feedforward source: "none" (PD only), "ndo"
    (first-order observer), or "hodo" (higher-order observer with the
    supplied model).  Measured velocity is corrupted with seeded
    Gaussian noise of variance ``sigma_v2``; logged truth is clean.
    """

    mode: str = "none"
    model: Optional[SeparatedModel] = None
    disturbance_name: str = "quad_drag_drift"
    k_eta: float = 10.0
    k_v: float = 25.0
    mass: float = 1.0
    eta0: float = 0.0
    v0: float = 0.0
    sigma_v2: float = 0.1
    dt: float = 1e-3
    duration: float = 20.0
    poles: tuple = (-0.4, -0.4, -0.4)
    ndo_gain: float = 0.4
    seed: int = 0
    log_sigma: bool = False
    reference: Callable = field(default=_sin_half_reference, repr=False)

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError(f"scenario.dt must be > 0, got {self.dt}")
        if self.duration <= 0:
            raise ConfigError(f"scenario.duration must be > 0, got {self.duration}")
        if self.sigma_v2 < 0:
            raise ConfigError(f"scenario.sigma_v2 must be >= 0, got {self.sigma_v2}")
        if self.mode not in ("none", "ndo", "hodo"):
            raise ConfigError(f"scenario.mode must be none|ndo|hodo, got {self.mode!r}")
        if self.mode == "hodo" and self.model is None:
            raise ConfigError("scenario.mode 'hodo' requires a model")


@dataclass
class ScenarioResult:
    """Uniformly sampled series of one closed-loop run plus summary metrics."""

    mode: str
    t: np.ndarray
    eta: np.ndarray
    eta_d: np.ndarray
    v: np.ndarray
    u: np.ndarray
    delta_true: np.ndarray
    delta_hat: np.ndarray
    sigma_hat: Optional[np.ndarray] = None
    gain_failures: int = 0

    def tracking_mae(self) -> float:
        return float(np.mean(np.abs(self.eta - self.eta_d)))

    def estimation_mae(self) -> float:
        return float(np.mean(np.abs(self.delta_true - self.delta_hat)))

    def estimation_tail_mae(self, t_from: float = 10.0) -> float:
        """Mean |error| from t_from on; nan when the run ends earlier."""
        w = self.t >= t_from
        if not np.any(w):
            return float("nan")
        return float(np.mean(np.abs(self.delta_true[w] - self.delta_hat[w])))

    def estimation_decay_slope(self, t_from: float = 2.0, t_to: float = 10.0) -> float:
        """Slope of log |estimation error| over a time window."""
        w = (self.t >= t_from) & (self.t <= t_to)
        if w.sum() < 2:
            return float("nan")
        err = np.abs(self.delta_true[w] - self.delta_hat[w])
        return float(np.polyfit(self.t[w], np.log(np.maximum(err, 1e-300)), 1)[0])

    def disturbance_range(self) -> float:
        return float(self.delta_true.max() - self.delta_true.min())


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Simulate the point-mass tracking loop under one compensation mode.

    Per step: measure v (noisy), form the control from the current
    disturbance estimate, log, advance the true plant with the held
    control (RK4), then advance the observer with the held measurement
    and control.  Deterministic for a fixed config including seed.
    """
    n_steps = int(round(cfg.duration / cfg.dt))
    fn = disturbance(cfg.disturbance_name)
    channel = newton_velocity_channel(cfg.mass)

    observer = None
    if cfg.mode == "hodo":
        observer = Hodo(cfg.model, channel.f_x, channel.f_u, cfg.poles,
                        x0=[cfg.v0])
    elif cfg.mode == "ndo":
        observer = FirstOrderDo(channel.f_x, channel.f_u, cfg.ndo_gain, n=1)

    rng = rng_stream(cfg.seed, "scenario", cfg.mode)
    noise = (np.sqrt(cfg.sigma_v2) * rng.standard_normal(n_steps)
             if cfg.sigma_v2 > 0 else np.zeros(n_steps))

    t_grid = cfg.dt * np.arange(n_steps)
    log = {k: np.empty(n_steps) for k in ("eta", "eta_d", "v", "u", "delta_true", "delta_hat")}
    sig_log = (np.empty((n_steps, cfg.model.config.s2))
               if cfg.log_sigma and cfg.mode == "hodo" else None)

    eta, v = cfg.eta0, cfg.v0
    delta_hat = 0.0
    mass = cfg.mass
    for k in range(n_steps):
        t = t_grid[k]
        v_meas = v + noise[k]
        eta_d, eta_d_dot = cfg.reference(t)
        u = pd_control(eta, v_meas, eta_d, eta_d_dot, cfg.k_eta, cfg.k_v, delta_hat)

        log["eta"][k] = eta
        log["eta_d"][k] = eta_d
        log["v"][k] = v
        log["u"][k] = u
        log["delta_true"][k] = fn(v, t)
        log["delta_hat"][k] = delta_hat
        if sig_log is not None:
            sig_log[k] = observer.sigma_hat

        def plant_rhs(tau, s):
            return np.array([s[1], (u + fn(s[1], tau)) / mass])

        try:
            eta, v = rk4_step(plant_rhs, np.array([eta, v]), t, cfg.dt)
        except NumericalError:
            # hard integration failure: return the partial series
            cut = slice(0, k + 1)
            return ScenarioResult(
                mode=cfg.mode, t=t_grid[cut],
                **{key: arr[cut] for key, arr in log.items()},
                sigma_hat=None if sig_log is None else sig_log[cut],
                gain_failures=getattr(observer, "gain_failures", 0))

        if observer is not None:
            delta_hat = mass * float(observer.step([v_meas], [u], cfg.dt)[0])

    return ScenarioResult(
        mode=cfg.mode, t=t_grid, **log, sigma_hat=sig_log,
        gain_failures=getattr(observer, "gain_failures", 0))
