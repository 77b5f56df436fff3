"""The closed loop with one call per part: the reference for ``run_scenario``.

:func:`run_scenario_reference` is :func:`coupled_do.sim.run_scenario`
written as separate calls: the reference signal, the PD law
:func:`pd_control`, the RK4 plant step :func:`point_mass_step`, NumPy
log stores and, for both observer modes, ``Hodo.step`` on the plant
terms b that ``loop_observer.plant_terms`` sums from the arrays of
:func:`newton_velocity_channel`.  The generated loop of ``run_scenario``
keeps the order of every operation of this form, so the two agree bit
for bit; the tests compare them with ``==``.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from coupled_do.basis import BasisConfig
from coupled_do.errors import NumericalError
from coupled_do.learner import SeparatedModel, rng_stream
from coupled_do.observer import Hodo
from coupled_do.sim import ScenarioConfig, ScenarioResult, disturbance, newton_velocity_channel
from loop_observer import plant_terms


def point_mass_step(fn: Callable, u: float, mass: float, eta: float, v: float,
                    t: float, dt: float, delta: float) -> tuple[float, float]:
    """One classical RK4 step of the point mass on Python floats.

    Integrates d(eta)/dt = v, dv/dt = (u + fn(v, tau)) / mass over
    [t, t + dt] with u held, where ``delta`` is fn(v, t), the first
    stage's disturbance, which the caller has already evaluated.  The
    operations run in the order of :func:`coupled_do.oracles.rk4_step`
    applied to the state array (eta, v), so the result is bit-identical
    to it.  The position stages are not needed: no stage reads them.
    """
    h = 0.5 * dt
    a1 = (u + delta) / mass
    v2 = v + h * a1
    a2 = (u + fn(v2, t + h)) / mass
    v3 = v + h * a2
    a3 = (u + fn(v3, t + h)) / mass
    v4 = v + dt * a3
    a4 = (u + fn(v4, t + dt)) / mass
    w = dt / 6.0
    eta = eta + w * (v + 2.0 * v2 + 2.0 * v3 + v4)
    v = v + w * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    if not (math.isfinite(eta) and math.isfinite(v)):
        raise NumericalError(f"integration produced non-finite state at t={t}")
    return eta, v


def pd_control(eta: float, v: float, eta_d: float, eta_d_dot: float,
               k_eta: float, k_v: float, delta_hat: float = 0.0) -> float:
    """PD tracking law with feedforward disturbance cancellation:
    u = k_eta (eta_d - eta) + k_v (eta_d_dot - v) - delta_hat."""
    return k_eta * (eta_d - eta) + k_v * (eta_d_dot - v) - delta_hat


def sin_half_reference(t: float) -> tuple[float, float]:
    """eta_d(t) = sin(t/2) and its derivative, as Python floats."""
    return math.sin(0.5 * t), 0.5 * math.cos(0.5 * t)


def run_scenario_reference(cfg: ScenarioConfig) -> ScenarioResult:
    """``run_scenario`` with one call per part of the step (module docstring)."""
    n_steps = int(round(cfg.duration / cfg.dt))
    fn = disturbance(cfg.disturbance_name)
    f_x, f_u = newton_velocity_channel(cfg.mass)

    observer = None
    if cfg.mode == "hodo":
        observer = Hodo(cfg.model, cfg.poles, x0=[cfg.v0])
    elif cfg.mode == "ndo":
        unit = SeparatedModel(theta=[[1.0]], config=BasisConfig(p=0, n=1))
        observer = Hodo(unit, (-cfg.ndo_gain,), x0=[cfg.v0])

    rng = rng_stream(cfg.seed, "scenario", cfg.mode)
    noise = (np.sqrt(cfg.sigma_v2) * rng.standard_normal(n_steps)
             if cfg.sigma_v2 > 0 else np.zeros(n_steps))

    t_grid = cfg.dt * np.arange(n_steps)
    log = {k: np.empty(n_steps) for k in ("eta", "eta_d", "v", "u", "delta_true", "delta_hat")}
    sig_log = (np.empty((n_steps, cfg.model.config.s2))
               if cfg.log_sigma and cfg.mode == "hodo" else None)

    eta, v = float(cfg.eta0), float(cfg.v0)
    delta_hat = 0.0
    mass, dt = cfg.mass, cfg.dt
    n_done, completed = n_steps, True
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            t = t_grid.item(k)          # Python floats, not NumPy scalars
            v_meas = v + noise.item(k)
            eta_d, eta_d_dot = sin_half_reference(t)
            u = pd_control(eta, v_meas, eta_d, eta_d_dot, cfg.k_eta, cfg.k_v, delta_hat)
            try:
                delta = fn(v, t)
            except OverflowError:
                delta = math.nan        # the plant step below fails on it

            log["eta"][k] = eta
            log["eta_d"][k] = eta_d
            log["v"][k] = v
            log["u"][k] = u
            log["delta_true"][k] = delta
            log["delta_hat"][k] = delta_hat
            if sig_log is not None:
                sig_log[k] = observer.sigma_hat

            try:
                eta, v = point_mass_step(fn, u, mass, eta, v, t, dt, delta)
            except (NumericalError, OverflowError):
                # hard integration failure: return the partial series
                n_done, completed = k + 1, False
                break

            if observer is not None:
                b, = plant_terms(f_x, f_u, np.array([v_meas]), [u])
                delta_hat = mass * observer.step(v_meas, b, dt)[0]

    return ScenarioResult(
        mode=cfg.mode, t=t_grid[:n_done],
        **{key: arr[:n_done] for key, arr in log.items()},
        sigma_hat=None if sig_log is None else sig_log[:n_done],
        gain_failures=getattr(observer, "gain_failures", 0),
        completed=completed)
