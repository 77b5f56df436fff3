"""The observer step in loop form: the reference for the generated kernels.

:class:`LoopHodo` is :class:`coupled_do.observer.Hodo` written with
explicit loops over the s2 time-feature entries and the s2 terms of
Pi(x), every sum added left to right from 0.0.
The generated straight-line step of ``Hodo`` keeps the order of every
operation of this form, so the two agree bit for bit; the tests compare
them with ``==``.
"""

from __future__ import annotations

import math

import numpy as np

from coupled_do.errors import NumericalError
from coupled_do.observer import _MARGIN, UnobservableError, _pole_polynomial_of_a


def plant_terms(f_x, f_u, x, u) -> list:
    """The plant terms b = f_x(x) + f_u(x) u that ``step`` takes, on Python
    floats: each row's products added left to right from 0.0, then
    f_x(x)_i + that."""
    b = []
    for f, row in zip(np.asarray(f_x(x)).tolist(), np.asarray(f_u(x)).tolist()):
        acc = 0.0
        for fj, uj in zip(row, np.asarray(u, dtype=float).tolist()):
            acc += fj * uj
        b.append(f + acc)
    return b


class LoopHodo:
    """``Hodo`` in loop form, with the same state (``z``, ``sigma_hat``,
    ``gain``, ``gain_failures``) and the same step contract."""

    def __init__(self, model, poles, x0, sigma0=None):
        self.model = model
        s2 = model.config.s2
        self.poles = np.atleast_1d(np.asarray(poles, dtype=complex))
        self.gain_failures = 0

        self._K = model.K[0].tolist()
        self._shift = [0.0] + np.diag(model.A, -1).tolist()
        fact = np.cumprod(np.r_[1.0, np.arange(1.0, s2)])
        self._fact = fact.tolist()
        q_fact = (_pole_polynomial_of_a(model.A, self.poles) * fact
                  * model.time_scale ** -(s2 - 1))
        self._q_rows = [row[:i + 1] for i, row in enumerate(q_fact.tolist())]

        x0, = np.atleast_1d(np.asarray(x0, dtype=float)).tolist()
        self.sigma_hat = [0.0] * s2 if sigma0 is None else np.asarray(sigma0, float).tolist()
        self._c = self._row(x0)
        self.gain = self._design(self._c)
        xw = 0.0 + x0
        self.z = [s - g * xw for s, g in zip(self.sigma_hat, self.gain)]

    def _row(self, x: float) -> list:
        """c = K Pi(x), each entry added left to right from 0.0."""
        pi = self.model.config.pi_rows(np.array([[x]]))[0].tolist()
        c = []
        for krow in self._K:
            acc = 0.0
            for kj, pj in zip(krow, pi):
                acc += kj * pj
            c.append(acc)
        return c

    def _design(self, c: list) -> list:
        pivot, r = abs(c[-1]), []
        for ci, fi in zip(c, self._fact):
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
        for row in self._q_rows:
            acc = 0.0
            for qi, yi in zip(row, y):
                acc += qi * yi
            gain.append(acc)
        return gain

    def step(self, x: float, b: float, dt: float) -> tuple:
        """As ``Hodo.step``: the estimate c . sigma_hat as a tuple of one float."""
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be > 0 and finite, got {dt}")
        if not (math.isfinite(x) and math.isfinite(b)):
            raise NumericalError("non-finite observer inputs")
        xw, wd = 0.0 + x, 0.0 + b

        c = self._row(x)
        try:
            gain = self.gain if c == self._c else self._design(c)
            self._c = c
        except UnobservableError:
            gain = self.gain
            self.gain_failures += 1
        z_old, g_old, shift = self.z, self.gain, self._shift
        ks = range(len(z_old))
        sigma, cv = [0.0] * len(ks), 0.0
        for k in ks:
            sigma[k] = sk = z_old[k] + g_old[k] * xw
            cv += c[k] * sk
        cv += wd
        self.gain = gain

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
        z, sigma_hat, cs = [0.0] * len(ks), [0.0] * len(ks), 0.0
        for k in ks:
            gx = gain[k] * xw
            z[k] = zk = sigma[k] + dt * w[k] - gx
            sigma_hat[k] = sk = zk + gx
            cs += c[k] * sk
        self.z, self.sigma_hat = z, sigma_hat
        if not all(map(math.isfinite, sigma_hat)):
            raise NumericalError("observer state diverged to non-finite values")
        return cs,
