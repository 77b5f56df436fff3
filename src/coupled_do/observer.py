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
Python floats and adds every sum left to right in an explicit loop, so
its bits do not depend on the Python version's built-in ``sum``.
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
        self._c = []                    # the row ``gain`` was designed for,
        for krow in self._Kw:           # summed as ``step`` sums it, bit for bit
            acc = 0.0
            for kj, pj in zip(krow, pi):
                acc += kj * pj
            self._c.append(acc)
        self.gain = self._design(self._c)
        xw = 0.0
        for xi in x0:
            xw += xi
        xw *= self.w
        self.z = [s - g * xw for s, g in zip(self.sigma_hat, self.gain)]

    def _design(self, c: list) -> list:
        """Gain column g (s2 floats) for the design row c (s2 floats)."""
        # O(c) v = e_s2 with v = diag(j!) y is sum_j h_(j+k) y_j = [k = s2 - 1]:
        # y is the reciprocal power series of r = h reversed, term by term
        pivot, r = abs(c[-1]), []
        for ci, fi in zip(c, self._fact):
            # false for a zero pivot and for any non-finite entry
            if not pivot > _MARGIN * abs(ci):
                raise UnobservableError(f"output row pivot {c[-1]:.2e} is within "
                                        f"{_MARGIN:.0e} * max|c_i| of zero")
            r.append(ci * fi)
        r.reverse()
        y = [1.0 / r[0]]
        for m in range(1, len(r)):
            acc = 0.0
            for ri, yi in zip(r[m:0:-1], y):
                acc += ri * yi
            y.append(-acc / r[0])
        gain = []
        for row in self._q_rows:        # row i has i + 1 entries
            acc = 0.0
            for qi, yi in zip(row, y):
                acc += qi * yi
            gain.append(acc)
        return gain

    def step(self, x, u, dt: float) -> list:
        """Advance by dt and return the estimate C(x) sigma_hat as a list
        of n Python floats.

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
        xa = np.array(xs)
        xw = wd = 0.0                   # w sum(x) and w sum(d), d = f_x(x) + f_u(x) u
        for xi, f, row in zip(xs, np.asarray(self.f_x(xa)).tolist(),
                              np.asarray(self.f_u(xa)).tolist(), strict=True):
            if len(row) != len(us):
                raise ValueError(f"control must have {len(row)} entries, got {len(us)}")
            acc = 0.0
            for fj, uj in zip(row, us):
                acc += fj * uj
            xw += xi
            wd += f + acc
        xw, wd = self.w * xw, self.w * wd

        pi = self.model.config.pi_terms(xs)
        c = []                          # frozen over the step
        for krow in self._Kw:
            acc = 0.0
            for kj, pj in zip(krow, pi):
                acc += kj * pj
            c.append(acc)
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
        sigma, cv = [0.0] * len(ks), 0.0
        for k in ks:
            sigma[k] = sk = z_old[k] + g_old[k] * xw
            cv += c[k] * sk
        cv += wd
        self.gain = gain

        # v = M sigma - Gamma d with (M v)_k = shift_k v_(k-1) - g_k (c . v),
        # then w = v + h M w in place for h = dt/4, dt/3, dt/2; cw is c . w
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
        # cs is c . sigma_hat, the estimate when there is one output row
        z, sigma_hat, cs = [0.0] * len(ks), [0.0] * len(ks), 0.0
        for k in ks:
            gx = gain[k] * xw
            z[k] = zk = sigma[k] + dt * w[k] - gx
            sigma_hat[k] = sk = zk + gx
            cs += c[k] * sk
        self.z, self.sigma_hat = z, sigma_hat
        if not all(map(math.isfinite, sigma_hat)):
            raise NumericalError("observer state diverged to non-finite values")
        if self._K is None:
            return [cs]
        estimate = []                   # row i: sum_j (K_ij . Pi(x)) sigma_hat_j
        for rows in self._K:
            acc = 0.0
            for krow, sj in zip(rows, sigma_hat):
                cij = 0.0
                for kj, pj in zip(krow, pi):
                    cij += kj * pj
                acc += cij * sj
            estimate.append(acc)
        return estimate
