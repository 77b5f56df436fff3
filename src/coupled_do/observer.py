"""Online disturbance estimation by one observer, :class:`Hodo`.

It reconstructs the monomial time-feature vector varsigma(t) of an
identified separable model, d/dt varsigma = A varsigma with
delta = Theta B(x) D varsigma = C(x) varsigma, through

    dz/dt = A sigma_hat - Gamma (f_x(x) + f_u(x) u + C(x) sigma_hat),
    sigma_hat = z + Gamma x,      delta_hat = C(x) sigma_hat,

with Gamma redesigned at each step's state so that the error dynamics
d/dt e = (A - Gamma C(x)) e have prescribed stable eigenvalues.  The
classical first-order disturbance observer is its case s2 = 1: on the
unit model Theta = [[1]] of order p = 0, C(x) = 1, A = 0 and the pole -G
places Gamma = G, so dz/dt = -G (z + G x + f_x(x) + f_u(x) u); it
recovers constant disturbances and lags a ramp of slope r by r / G.

A is a weighted shift (d/dt t^k = k t^(k-1)), so the observability
matrix of an output row c, columns reversed, is upper triangular with
the pivot c_(s2-1) times factorials on its diagonal: c is observable
iff c_(s2-1) != 0, and the gain is an O(s2^2) back-substitution.  A
non-finite row or |c_(s2-1)| <= _MARGIN * max|c_i| counts as unobservable;
:func:`coupled_do.oracles.ackermann_gain` is the generic reference route.

With x, u, the gain and C(x) held over a step, dy/dt = M y + b is
linear, and one classical RK4 step is exactly y+ = y + dt phi(dt M)
(M y + b), phi(X) = I + X/2 + X^2/6 + X^3/24, evaluated by Horner's rule.
Since Gamma = g w^T for the design row c = w C(x), M = A - g c^T is a
rank-one update of the weighted shift: (M v)_k = A_(k,k-1) v_(k-1) -
g_k (c . v) costs O(s2), and M is never formed.  The step runs on
Python floats, with every dot product summed left to right.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NumericalError
from .learner import SeparatedModel


_MARGIN = 1e-4     # |c_(s2-1)| / max|c_i| at or below which a row is unobservable


class UnobservableError(NumericalError):
    """The output row fails :class:`Hodo`'s pivot margin, or cond(O) in
    :func:`coupled_do.oracles.ackermann_gain` exceeds 1e8."""


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


def _dot(a, b) -> float:
    """sum_i a_i b_i, added left to right on Python floats."""
    s = 0.0
    for ai, bi in zip(a, b, strict=True):
        s += ai * bi
    return s


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

    The design row is c = w C(x) with the uniform weights w = n^-1/2,
    and Gamma = g w^T.  On a normalized model A is scaled by
    ``model.time_scale`` = alpha, which the gain undoes by the factor
    alpha^-(s2-1).  On an unobservable row the constructor raises
    :class:`UnobservableError`, and ``step`` keeps the previous gain and
    counts it in ``gain_failures``.  ``sigma_hat``, the auxiliary ``z``
    and the gain column ``gain`` (g) are lists of s2 Python floats.
    """

    def __init__(self, model: SeparatedModel, f_x: Callable, f_u: Callable,
                 poles, x0, sigma0=None):
        self.model, self.f_x, self.f_u = model, f_x, f_u
        s2 = model.config.s2
        self.poles = np.atleast_1d(np.asarray(poles, dtype=complex))
        if self.poles.shape != (s2,):
            raise ValueError(f"need {s2} poles, got {self.poles.shape}")
        if np.any(self.poles.real >= 0):
            raise ValueError("all poles must have strictly negative real part")
        self.gain_failures = 0

        self.w = 1.0 / math.sqrt(model.n)
        # w folded into K: the design row is c = K_w Pi(x).  With one
        # output row w = 1, K_w = K, and c is C(x) itself.
        self._Kw = (self.w * model.K.sum(axis=0)).tolist()
        self._K = model.K.tolist() if model.n > 1 else None
        # (A v)_k = shift_k v_(k-1), with shift_0 = 0 for the zero first row
        self._shift = [0.0] + np.diag(model.A, -1).tolist()
        # (c A^k)_j = alpha^k h_(j+k) / j! with h_i = c_i i!; q(A) absorbs
        # the j!, and alpha^-(s2-1) the row scaling of O.  q(A) is lower
        # triangular like A, so row i needs its first i + 1 entries only.
        fact = np.cumprod(np.r_[1.0, np.arange(1.0, s2)])
        self._fact = fact.tolist()
        q_fact = (_pole_polynomial_of_a(model.A, self.poles) * fact
                  * model.time_scale ** -(s2 - 1))
        self._q_rows = [row[:i + 1] for i, row in enumerate(q_fact.tolist())]

        x0 = np.atleast_1d(np.asarray(x0, dtype=float)).tolist()
        self.sigma_hat = [0.0] * s2 if sigma0 is None else np.asarray(sigma0, float).tolist()
        pi = model.config.pi_terms(x0)
        self._c = [_dot(k, pi) for k in self._Kw]       # the row ``gain`` was designed for
        self.gain = self._design(self._c)
        xw = self.w * sum(x0)
        self.z = [s - g * xw for s, g in zip(self.sigma_hat, self.gain)]

    def _design(self, c: list) -> list:
        """Gain column g (s2 floats) for the design row c (s2 floats)."""
        pivot = abs(c[-1])
        for ci in c:
            # false for a zero pivot and for any non-finite entry
            if not pivot > _MARGIN * abs(ci):
                raise UnobservableError(f"output row pivot {c[-1]:.2e} is within "
                                        f"{_MARGIN:.0e} * max|c_i| of zero")
        # O(c) v = e_s2 with v = diag(j!) y is sum_j h_(j+k) y_j = [k = s2 - 1]:
        # y is the reciprocal power series of r = h reversed, term by term
        r = [ci * fi for ci, fi in zip(c, self._fact)][::-1]
        y = [1.0 / r[0]]
        for m in range(1, len(r)):
            y.append(-_dot(r[m:0:-1], y) / r[0])
        return [_dot(row, y[:len(row)]) for row in self._q_rows]

    def step(self, x, u, dt: float) -> np.ndarray:
        """Advance by dt and return the estimate C(x) sigma_hat, shape (n,).

        x and u are held over the step (zero-order hold), together with
        the gain and C(x), so that sigma obeys d(sigma)/dt = M sigma -
        Gamma d with d = f_x(x) + f_u(x) u, stepped in the closed RK4
        form of the module docstring.  The gain is redesigned at x; on
        an unobservable output row the previous gain is kept.
        """
        if dt <= 0:
            raise ValueError(f"dt must be > 0, got {dt}")
        xs, us = list(map(float, x)), list(map(float, u))
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, us))):
            raise NumericalError("non-finite observer inputs")
        if len(xs) != self.model.n:
            raise ValueError(f"state must have {self.model.n} entries, got {len(xs)}")

        pi = self.model.config.pi_terms(xs)
        c = [_dot(k, pi) for k in self._Kw]             # frozen over the step
        cmap = [c] if self._K is None else [[_dot(k, pi) for k in r] for r in self._K]
        try:
            # the gain depends on the row alone: an unchanged row keeps it
            gain = self.gain if c == self._c else self._design(c)
            self._c = c
        except UnobservableError:
            gain = self.gain
            self.gain_failures += 1
        # sigma_hat is continuous across the gain switch: the output
        # identity sigma = z + Gamma x holds with the new gain after it
        z_old, g_old, shift = self.z, self.gain, self._shift
        ks = range(len(z_old))
        xw = self.w * sum(xs)
        sigma = [z_old[k] + g_old[k] * xw for k in ks]
        self.gain = gain

        xa = np.array(xs)
        drive = [f + _dot(row, us) for f, row in zip(np.asarray(self.f_x(xa)).tolist(),
                                                     np.asarray(self.f_u(xa)).tolist())]
        # v = M sigma - Gamma d with (M v)_k = shift_k v_(k-1) - g_k (c . v),
        # then w = v + h M w in place for h = dt/4, dt/3, dt/2; cw is c . w
        cv = _dot(c, sigma) + self.w * sum(drive)
        v, cw, p = [0.0] * len(ks), 0.0, 0.0
        for k in ks:
            v[k] = shift[k] * p - gain[k] * cv
            cw += c[k] * v[k]
            p = sigma[k]
        w = v[:]
        for h in (0.25 * dt, dt / 3.0, 0.5 * dt):
            cw_next = p = 0.0
            for k in ks:
                wk = v[k] + h * (shift[k] * p - gain[k] * cw)
                p, w[k] = w[k], wk
                cw_next += c[k] * wk
            cw = cw_next
        z, sigma_hat = [0.0] * len(ks), [0.0] * len(ks)
        for k in ks:
            gx = gain[k] * xw
            z[k] = sigma[k] + dt * w[k] - gx
            sigma_hat[k] = z[k] + gx
        self.z, self.sigma_hat = z, sigma_hat
        if not all(map(math.isfinite, sigma_hat)):
            raise NumericalError("observer state diverged to non-finite values")
        return np.array([_dot(row, sigma_hat) for row in cmap])
