"""Plant models, reference tracking scenarios, and dataset synthesis.

The benchmark plant is a second-order point mass

    d(eta)/dt = v,      m dv/dt = u + delta(v, t),

tracked with a PD controller plus feedforward disturbance compensation.
The observers only see the velocity channel (f_x = 0, f_u = 1/m), which
is where the coupled disturbance enters: the one state channel that the
package's models and datasets describe.  The plant's
disturbances are the registry in :mod:`coupled_do.learner`; this module
imports it and :mod:`coupled_do.observer`, and neither imports it back.

The closed loop is straight-line Python on floats compiled once per
observer shape and disturbance (:func:`_loop`), a partial evaluation for
its model: the only copy of the reference, the PD law and the RK4 step,
with the disturbance and ``Hodo.step``'s lines written in at each step.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basis import BasisConfig
from .errors import ConfigError, NumericalError
from .learner import (SeparatedModel, TrajectoryDataset, _sin, check, disturbance,
                      disturbance_box, rng_stream, synthesize_dataset)
from .observer import Hodo, build, check_poles, loop_step


# --- plant and training data ------------------------------------------------

def newton_velocity_channel(mass: float = 1.0) -> tuple[Callable, Callable]:
    """Plant maps (f_x, f_u) of the point mass's velocity equation
    dv/dt = f_x(v) + f_u(v) u + delta/m = u/m + delta/m.

    Both maps are state-independent and return the same read-only
    (1,) and (1, 1) arrays, which batch callers ``np.broadcast_to``.
    """
    fx, fu = np.zeros(1), np.full((1, 1), 1.0 / mass)
    fx.flags.writeable = fu.flags.writeable = False
    return lambda x: fx, lambda x: fu


def generate_training_run(name: str, n_samples: int = 10000, seed: int = 0,
                          noise_std: float = 0.0, x_box=None,
                          t_box=None) -> TrajectoryDataset:
    """Synthesize an identification dataset for a registered disturbance.

    Samples (x, t) uniformly over ``x_box`` and ``t_box``, each by default
    the disturbance's registered box, and records the disturbance value at
    each sample (optionally corrupted, see
    :func:`coupled_do.learner.synthesize_dataset`).  Trajectory-based
    target recovery is handled separately by ``targets_from_trajectory``.
    """
    registered_x, registered_t = disturbance_box(name)
    rng = rng_stream(seed, "dataset", 0)
    return synthesize_dataset(disturbance(name),
                              registered_x if x_box is None else x_box,
                              registered_t if t_box is None else t_box,
                              n_samples, rng, noise_std=noise_std)


# --- closed-loop scenario ---------------------------------------------------

MODES = ("none", "ndo", "hodo")


@dataclass(frozen=True)
class ScenarioConfig:
    """Closed-loop tracking run description.

    The position tracks eta_d(t) = sin(t/2).  ``mode`` selects the
    feedforward source: "none" (PD only), "hodo" (the observer on
    ``model`` with ``poles``), or "ndo" (the same observer on the p = 0
    unit model Theta = [[1]] with the pole -``ndo_gain``: the classical
    first-order observer).  Measured velocity is corrupted with seeded
    Gaussian noise of variance ``sigma_v2``; logged truth is clean.
    Every field but ``mode``, ``model`` and ``disturbance_name`` is an
    INI ``[scenario]``/``[observer]`` key; its only default and range
    check are here, and each error names its ``section.field``; it is
    frozen, so that no assignment skips them.  The poles of the mode's
    observer must keep its RK4 step stable at ``dt``.
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

    def __post_init__(self):
        for name, value in (("scenario.k_eta", self.k_eta), ("scenario.k_v", self.k_v),
                            ("scenario.dt", self.dt), ("scenario.duration", self.duration),
                            ("scenario.mass", self.mass), ("observer.ndo_gain", self.ndo_gain)):
            if not 0 < value < math.inf:
                raise ConfigError(f"{name}: must be > 0 and finite, got {value}")
        steps = self.duration / self.dt        # rounded, the step count
        if not 0.5 < steps < math.inf:
            raise ConfigError(f"scenario.duration: {self.duration} holds {steps:g} steps of "
                              f"scenario.dt = {self.dt}; need a finite count >= 1")
        if not 0 <= self.sigma_v2 < math.inf:
            raise ConfigError(f"scenario.sigma_v2: must be >= 0 and finite, got {self.sigma_v2}")
        check("seed", self.seed, "scenario.seed")
        if self.mode not in MODES:
            raise ConfigError(f"scenario.mode: must be {'|'.join(MODES)}, got {self.mode!r}")
        poles = check_poles(self.poles, "observer.poles")
        if self.mode == "hodo" and self.model is None:
            raise ConfigError("scenario.mode: 'hodo' requires a model")
        if self.mode == "hodo" and len(poles) != self.model.config.s2:
            raise ConfigError(f"observer.poles: {len(poles)} given, model has s2 = {self.model.config.s2}")
        if self.mode != "none":
            # one RK4 step of the observer maps its frozen error e to R(dt M) e,
            # and M has the poles as eigenvalues: each needs |R(pole * dt)| < 1
            field, value = (("observer.ndo_gain", self.ndo_gain) if self.mode == "ndo"
                            else ("observer.poles", self.poles))
            z = (np.array([-self.ndo_gain]) if self.mode == "ndo" else poles) * self.dt
            with np.errstate(all="ignore"):
                r = z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))     # R(z) - 1
                if not (2.0 * r.real + abs(r) ** 2 < 0.0).all():         # |1 + r| < 1
                    raise ConfigError(f"{field}: unstable in the observer's RK4 step at "
                                      f"scenario.dt = {self.dt} (need |pole| * dt < 2.785 "
                                      f"on the real axis), got {value}")


@dataclass
class ScenarioResult:
    """Uniformly sampled series of one closed-loop run plus summary metrics;
    ``completed`` is false when a non-finite plant state or a disturbance
    beyond the float range ended it early."""

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
    completed: bool = True

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


_LOOP = """\
def run(cfg, fn, self, fx, fu, n_steps, t_grid, noise, logs, sig_log):
    mass, dt, k_eta, k_v = cfg.mass, cfg.dt, cfg.k_eta, cfg.k_v
    eta, v = float(cfg.eta0), float(cfg.v0)
    sin, cos, isfinite, nan = math.sin, math.cos, math.isfinite, math.nan
    half, sixth = 0.5 * dt, dt / 6.0
    eta_log, eta_d_log, v_log, u_log, delta_log, delta_hat_log = logs
    delta_hat, n_done, failures, completed = 0.0, n_steps, 0, True
    {setup}
    for k, t, noise_k in zip(range(n_steps), memoryview(t_grid), memoryview(noise)):
        v_meas, ht = v + noise_k, 0.5 * t
        eta_d, eta_d_dot = sin(ht), 0.5 * cos(ht)
        u = k_eta * (eta_d - eta) + k_v * (eta_d_dot - v_meas){minus_hat}
        try:
            delta = {delta_1}
        except OverflowError:
            delta = nan             # the plant step below fails on it
        eta_log[k] = eta
        eta_d_log[k] = eta_d
        v_log[k] = v
        u_log[k] = u
        delta_log[k] = delta
        {log}
        try:
            t_h, t_d = t + half, t + dt
            a_1 = (u + delta) / mass
            v_2 = v + half * a_1
            a_2 = (u + {delta_2}) / mass
            v_3 = v + half * a_2
            a_3 = (u + {delta_3}) / mass
            v_4 = v + dt * a_3
            a_4 = (u + {delta_4}) / mass
            eta = eta + sixth * (v + 2.0 * v_2 + 2.0 * v_3 + v_4)
            v = v + sixth * (a_1 + 2.0 * a_2 + 2.0 * a_3 + a_4)
        except OverflowError:       # a later stage's disturbance
            eta = nan
        if not (isfinite(eta) and isfinite(v)):
            n_done, completed = k + 1, False    # the partial series
            break
        {observe}
    return n_done, failures, completed
"""


@functools.cache
def _loop(shape: Optional[tuple], expr: Optional[str]) -> Callable:
    """The loop of :func:`run_scenario` for a key: the observer shape, (s2,
    normalize) or None, and the disturbance's ``fn.expr`` in (x, t), or None
    to call fn(v, t).  The RK4 step is that of ``oracles.rk4_step`` on (eta,
    v) without the unread position stages; the observer step is
    :func:`coupled_do.observer.loop_step`'s, and each new gain is designed
    by the observer's ``_design``, looked up once per run.  Logs go through
    memoryviews, whose stores are cheaper than ``array``'s."""
    def delta(x, t):
        return (f"fn({x}, {t})" if expr is None else
                "(" + re.sub(r"\b[xt]\b", lambda m: x if m[0] == "x" else t, expr) + ")")

    stages = (("v", "t"), ("v_2", "t_h"), ("v_3", "t_h"), ("v_4", "t_d"))
    deltas = {f"delta_{i}": delta(*args) for i, args in enumerate(stages, 1)}
    setup, log, observe = [], [], []
    if shape is not None:       # the observer's state lives in locals between steps
        log = ["delta_hat_log[k] = delta_hat", "if sig_log is not None: sig_log[k] = "
               f"[{', '.join(f'sh{k}' for k in range(shape[0]))}]"]
        observe = ["x0, b0 = v_meas, fx + fu * u", "delta_hat = mass * e0"]
        setup, step = loop_step(*shape, "\n".join([_LOOP, *log, *observe, *deltas.values()]))
        observe[1:1] = step
    source = _LOOP.format(setup="\n    ".join(setup), log="\n        ".join(log),
                          observe="\n        ".join(observe),
                          minus_hat="" if shape is None else " - delta_hat", **deltas)
    return build(source, f"<coupled_do.sim loop {shape} {expr}>", _sin=_sin)["run"]


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Simulate the point-mass tracking loop under one compensation mode.

    Per step: measure v (noisy), form the PD control u = k_eta (eta_d -
    eta) + k_v (eta_d_dot - v_meas) - delta_hat from the current
    disturbance estimate, log, advance the true plant by one classical
    RK4 step with u held, then advance the observer with the held
    measurement and control.

    One straight loop on Python floats, generated for the mode's
    observer shape and the disturbance (:func:`_loop`), serves all three
    modes, and it holds the only copy of the reference, the control law
    and the plant step.  The plant step runs the operations of
    :func:`coupled_do.oracles.rk4_step` on the state (eta, v), reusing
    the logged disturbance as its first stage; no stage reads the
    position stages, so they are skipped.  The loop walks the time grid
    and the noise through memoryviews and logs into preallocated NumPy
    buffers.  ``ndo`` and ``hodo`` advance their observer with the lines
    of ``Hodo.step`` written into the loop, its state kept in locals, on
    v_meas and b = f_x + f_u u, with the velocity channel's f_x = 0 and
    f_u = 1/m read once as floats; the step designs each gain through
    ``Hodo._design``.  ``tests/loop_scenario.py`` keeps the loop with one
    call per part, which this one equals bit for bit.

    A non-finite plant state, or a disturbance beyond the float range
    (logged as nan), ends the run and returns the series up to that
    step, marked not completed.  NumPy's overflow warnings are off over
    the loop: the finiteness checks alone report a diverging run.  A
    step count whose series do not fit in memory raises NumericalError
    before the first step.  Deterministic for a fixed config including
    seed.
    """
    n_steps = int(round(cfg.duration / cfg.dt))
    fn = disturbance(cfg.disturbance_name)
    observer = shape = None
    if cfg.mode == "hodo":
        observer = Hodo(cfg.model, cfg.poles, x0=[cfg.v0])
    elif cfg.mode == "ndo":
        unit = SeparatedModel(theta=[[1.0]], config=BasisConfig(p=0))
        observer = Hodo(unit, (-cfg.ndo_gain,), x0=[cfg.v0])
    if observer is not None:
        shape = observer.model.config.s2, bool(observer.model.config.normalize)
    # the channel's maps do not depend on the state, so b = fx + fu u on floats
    f_x, f_u = newton_velocity_channel(cfg.mass)
    fx, fu = float(f_x(None)[0]), float(f_u(None)[0, 0])

    unallocatable = NumericalError(f"the series of {n_steps} steps (scenario.duration / "
                                   f"scenario.dt) do not fit in memory")
    if n_steps > sys.maxsize // 8:      # past the address space NumPy raises ValueError
        raise unallocatable
    try:
        # the grids are scaled in place, which keeps the bits and makes no
        # temporary.  The logs come after them: allocated first, they left
        # repeated runs in one process with a larger heap.
        rng = rng_stream(cfg.seed, "scenario", cfg.mode)
        noise = rng.standard_normal(n_steps) if cfg.sigma_v2 > 0 else np.zeros(n_steps)
        noise *= math.sqrt(cfg.sigma_v2)
        t_grid = np.arange(n_steps, dtype=float)
        t_grid *= cfg.dt
        logs = [np.zeros(n_steps) for _ in range(6)]
        sig_log = (np.empty((n_steps, cfg.model.config.s2))
                   if cfg.log_sigma and cfg.mode == "hodo" else None)
    except MemoryError:
        raise unallocatable from None

    with np.errstate(over="ignore", invalid="ignore"):
        n_done, failures, completed = _loop(shape, getattr(fn, "expr", None))(
            cfg, fn, observer, fx, fu, n_steps, t_grid, noise, list(map(memoryview, logs)),
            sig_log)
    return ScenarioResult(
        cfg.mode, t_grid[:n_done], *(log[:n_done] for log in logs),
        sigma_hat=None if sig_log is None else sig_log[:n_done],
        gain_failures=failures, completed=completed)
