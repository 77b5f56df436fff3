"""Online disturbance estimation.

Two observers are provided.  The higher-order observer reconstructs the
monomial time-feature vector varsigma(t) of an identified separable
model through the exosystem

    d/dt varsigma = A varsigma,      delta = Theta B(x) D varsigma,

via the auxiliary dynamics

    dz/dt   = A sigma_hat - Gamma (f_x(x) + f_u(x) u + Theta B(x) D sigma_hat)
    sigma_hat = z + Gamma x
    delta_hat = Theta B(x) D sigma_hat,

with the gain Gamma resynthesized every step at the current state
(frozen-time design) so that A - Gamma C(x) carries prescribed stable
eigenvalues.  The estimation error then obeys
d/dt e = (A - Gamma C(x)) e and decays exponentially.

A is a weighted shift (d/dt t^k = k t^(k-1)), so the observability
matrix of an output row c, columns reversed, is upper triangular with
the pivot c_(s2-1) times factorials on its diagonal: c is observable
iff c_(s2-1) != 0, and the gain is an O(s2^2) back-substitution.  A row
with a non-finite entry or |c_(s2-1)| <= _MARGIN * max|c_i| counts as
unobservable.  :func:`ackermann_gain` keeps the generic route as reference.

Both observers hold x, u, the gain and C(x) over a step, which makes
their auxiliary dynamics linear, dy/dt = M y + b.  A classical
fourth-order Runge-Kutta step of such a system is exactly the affine map
y+ = y + dt phi(dt M) (M y + b) with phi(X) = I + X/2 + X^2/6 + X^3/24
(the method's stability polynomial), so each step is evaluated in that
closed form, by Horner's rule on the vector, instead of through four
stage evaluations.

The first-order baseline treats the disturbance as a signal with
bounded derivative; it converges on constant disturbances and lags
behind time-varying ones.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError
from .learner import SeparatedModel


_MARGIN = 1e-4     # |c_(s2-1)| / max|c_i| at or below which a row is unobservable


class UnobservableError(NumericalError):
    """The output row fails :class:`Hodo`'s pivot margin, or the observability
    matrix in :func:`ackermann_gain` exceeds its condition limit."""


def _pole_polynomial_of_a(A: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Evaluate the monic polynomial with the given roots at the matrix A."""
    q_coef = np.poly(poles)
    if np.abs(q_coef.imag).max() > 1e-9:
        raise ValueError("poles must be real or come in conjugate pairs")
    q_of_a = np.zeros_like(A)
    eye = np.eye(A.shape[0])
    for coef in q_coef.real:
        q_of_a = q_of_a @ A + coef * eye
    return q_of_a


def placement_residual(A: np.ndarray, c: np.ndarray, gamma: np.ndarray, poles) -> float:
    """Certificate that A - gamma c carries exactly the requested poles.

    Returns ||q(A - gamma c)||_F for the monic polynomial q with the
    requested roots.  By Cayley-Hamilton this is zero in exact
    arithmetic whenever the spectrum (with multiplicities) equals the
    requested pole set; unlike an eigensolver comparison it stays sharp
    for repeated poles, whose eigenvalue problem is conditioned as
    eps**(1/multiplicity).
    """
    A = np.asarray(A, dtype=float)
    lam = A - np.outer(np.asarray(gamma, dtype=float).ravel(),
                       np.asarray(c, dtype=float).ravel())
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    return float(np.linalg.norm(_pole_polynomial_of_a(lam, poles)))


def ackermann_gain(A: np.ndarray, c: np.ndarray, poles,
                   cond_limit: float = 1e8) -> np.ndarray:
    """Place observer poles for a single-output pair (A, c).

    Builds the observability matrix O with rows c, cA, ..., cA^(s-1)
    and returns Gamma = q(A) O^{-1} e_s, where q is the monic
    polynomial with the requested roots and e_s the last standard basis
    vector.  The spectrum of A - Gamma c then equals ``poles`` exactly
    (up to conditioning of O).  Independent reference for :class:`Hodo`.

    Raises
    ------
    UnobservableError
        When cond(O) exceeds ``cond_limit``.
    """
    A = np.asarray(A, dtype=float)
    c = np.asarray(c, dtype=float).ravel()
    s = A.shape[0]
    poles = np.atleast_1d(np.asarray(poles, dtype=complex))
    if poles.shape != (s,):
        raise ValueError(f"need {s} poles, got {poles.shape}")
    if np.any(poles.real >= 0):
        raise ValueError("all poles must have strictly negative real part")
    if not np.all(np.isfinite(c)):
        raise NumericalError("output row contains non-finite entries")
    obs = np.empty((s, s))
    row = c
    for i in range(s):
        obs[i] = row
        row = row @ A
    cond = np.linalg.cond(obs)
    if not np.isfinite(cond) or cond > cond_limit:
        raise UnobservableError(
            f"observability matrix condition {cond:.2e} exceeds {cond_limit:.2e}")
    return _pole_polynomial_of_a(A, poles) @ np.linalg.solve(obs, np.eye(s)[-1])


class Hodo:
    """Higher-order disturbance observer for a separated model.

    Parameters
    ----------
    model : SeparatedModel
        Identified coefficients and basis; supplies C(x) = Theta B(x) D
        and the exosystem matrix A.
    f_x, f_u : callable
        Plant mappings of the observed channel: f_x(x) -> (n,),
        f_u(x) -> (n, o).
    poles : sequence of s2 values
        Desired eigenvalues of the error dynamics, negative real parts.
    x0 : array_like, shape (n,)
        State at initialization (the first gain is designed here).
    sigma0 : array_like, shape (s2,), optional
        Initial feature estimate; zeros by default (offline and online
        time domains are unrelated, so no warm start is attempted).

    The n output rows enter the design as the single row c = w @ C(x)
    with the uniform unit weights w.  Its gain is a back-substitution:
    O(c) with its columns reversed is triangular, so c is observable iff
    c_(s2-1) != 0.  On a normalized model A is the unit weighted shift
    scaled by ``model.time_scale`` = alpha; the rows of O then carry
    alpha^k, which the gain undoes by a constant factor alpha^-(s2-1).
    On a non-finite row or |c_(s2-1)| <= ``_MARGIN`` * max|c_i| the
    constructor raises :class:`UnobservableError` and ``step`` keeps the
    previous gain, incrementing ``gain_failures``.
    """

    def __init__(self, model: SeparatedModel, f_x: Callable, f_u: Callable,
                 poles, x0, sigma0=None):
        self.model = model
        self.f_x = f_x
        self.f_u = f_u
        s2 = model.config.s2
        self.poles = np.atleast_1d(np.asarray(poles, dtype=complex))
        if self.poles.shape != (s2,):
            raise ValueError(f"need {s2} poles, got {self.poles.shape}")
        if np.any(self.poles.real >= 0):
            raise ValueError("all poles must have strictly negative real part")
        self.gain_failures = 0

        w = np.ones(model.n)
        self.w = w / np.linalg.norm(w)

        self._A = model.A
        # (c A^k)_j = alpha^k g_(j+k) / j! with g_i = c_i i!; q(A) absorbs
        # the j!, and alpha^-(s2-1) the row scaling of O
        self._fact = np.cumprod(np.r_[1.0, np.arange(1.0, s2)])
        self._q_fact = (_pole_polynomial_of_a(self._A, self.poles) * self._fact
                        * model.time_scale ** -(s2 - 1))
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        sigma0 = np.zeros(s2) if sigma0 is None else np.asarray(sigma0, dtype=float)
        self.gamma = self._design(model.output_map(x0))     # (s2, n)
        self.z = sigma0 - self.gamma @ x0
        self.sigma_hat = sigma0

    def _design(self, cmap: np.ndarray) -> np.ndarray:
        """Gain (s2, n) for the output map C(x) of shape (n, s2)."""
        c = self.w @ cmap
        # false for a zero pivot and for any non-finite entry
        if not abs(c[-1]) > _MARGIN * np.abs(c).max():
            raise UnobservableError(f"output row pivot {c[-1]:.2e} is within "
                                    f"{_MARGIN:.0e} * max|c_i| of zero")
        # O(c) v = e_s2 with v = diag(j!) y is sum_j g_(j+k) y_j = [k = s2 - 1]:
        # y is the reciprocal power series of r = g reversed, term by term
        r = (c * self._fact)[::-1]
        y = np.empty_like(r)
        y[0] = 1.0 / r[0]
        for m in range(1, len(r)):
            y[m] = -(r[m:0:-1] @ y[:m]) / r[0]
        return (self._q_fact @ y)[:, None] * self.w

    def step(self, x, u, dt: float) -> np.ndarray:
        """Advance the observer by dt and return the disturbance estimate.

        The measured state and control are held constant over the step
        (zero-order hold), together with the gain and C(x), so the
        estimate obeys the linear ODE d(sigma)/dt = M sigma - Gamma d
        with M = A - Gamma C(x) and drive d = f_x(x) + f_u(x) u.  One
        classical fourth-order Runge-Kutta step of it is exactly

            sigma+ = sigma + dt phi(dt M) (M sigma - Gamma d),
            phi(X) = I + X/2 + X^2/6 + X^3/24,

        evaluated by Horner's rule on the vector.  The gain is
        redesigned at the current state; on an unobservable output row
        the previous gain is kept.
        """
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if not (np.isfinite(x).all() and np.isfinite(u).all()):
            raise NumericalError("non-finite observer inputs")

        cmap = self.model.output_map(x)         # (n, s2), frozen over the step
        try:
            gamma_new = self._design(cmap)
        except UnobservableError:
            gamma_new = self.gamma
            self.gain_failures += 1
        # sigma_hat is continuous across the gain switch: the output
        # identity sigma = z + Gamma x holds with the new gain after it
        sigma = self.z + self.gamma @ x
        gamma = self.gamma = gamma_new

        drive = np.asarray(self.f_x(x)) + np.asarray(self.f_u(x)) @ u
        M = self._A - gamma @ cmap
        v = M @ sigma - gamma @ drive
        w = v + (0.25 * dt) * (M @ v)
        w = v + (dt / 3.0) * (M @ w)
        w = v + (0.5 * dt) * (M @ w)
        gamma_x = gamma @ x
        self.z = sigma + dt * w - gamma_x
        self.sigma_hat = self.z + gamma_x
        if not np.isfinite(self.sigma_hat).all():
            raise NumericalError("observer state diverged to non-finite values")
        return cmap @ self.sigma_hat


class FirstOrderDo:
    """Classical first-order disturbance observer (comparison baseline).

    Assumes a bounded disturbance derivative:

        dz/dt = -G z - G (G x + f_x(x) + f_u(x) u),   delta_hat = z + G x.

    The estimation error obeys d/dt e = -G e + d(delta)/dt, so constant
    disturbances are recovered exactly while a ramp of slope r leaves a
    steady lag r / G.
    """

    def __init__(self, f_x: Callable, f_u: Callable, gain: float, n: int = 1):
        self.f_x = f_x
        self.f_u = f_u
        self.gain = float(gain)
        self.z = np.zeros(n)

    def step(self, x, u, dt: float) -> np.ndarray:
        """Advance the observer by dt and return the disturbance estimate.

        With (x, u) held over the step, z obeys the scalar-rate linear
        ODE dz/dt = -G (z + G x + d), d = f_x(x) + f_u(x) u.  One
        classical fourth-order Runge-Kutta step of it is exactly

            z+ = z + dt phi(-G dt) (-G (z + G x + d)),
            phi(X) = 1 + X/2 + X^2/6 + X^3/24.
        """
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if not (np.isfinite(x).all() and np.isfinite(u).all()):
            raise NumericalError("non-finite observer inputs")
        g = self.gain
        drive = np.asarray(self.f_x(x)) + np.asarray(self.f_u(x)) @ u
        gx = g * x
        y = -g * dt
        phi = 1.0 + 0.5 * y * (1.0 + y / 3.0 * (1.0 + 0.25 * y))
        self.z = self.z + (dt * phi * -g) * (self.z + gx + drive)
        return self.z + gx
