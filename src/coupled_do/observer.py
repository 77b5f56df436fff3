"""Online disturbance estimation by one observer, :class:`Hodo`.

It reconstructs the monomial time-feature vector varsigma(t) of an
identified separable model, d/dt varsigma = A varsigma with
delta = Theta B(x) D varsigma = C(x) varsigma, on the one-channel plant
dx/dt = b + delta, where b holds the known plant terms (the drift plus
the input map times u), through

    dz/dt = A sigma_hat - Gamma (b + C(x) sigma_hat),
    sigma_hat = z + Gamma x,      delta_hat = C(x) sigma_hat,

with the gain column Gamma redesigned at each step's state so that the
error dynamics d/dt e = (A - Gamma C(x)) e have prescribed stable
eigenvalues.  The state x is a scalar: the observer serves the velocity
channel that :mod:`coupled_do.sim` drives, the one channel that the
package's models describe.  The classical
first-order disturbance observer is its case s2 = 1: on the unit model
Theta = [[1]] of order p = 0, C(x) = 1, A = 0 and the pole -G places
Gamma = G, so dz/dt = -G (z + G x + b); it recovers constant
disturbances and lags a ramp of slope r by r / G.

A is a weighted shift (d/dt t^k = k t^(k-1)), so the observability
matrix of an output row c, columns reversed, is upper triangular with
the pivot c_(s2-1) times factorials on its diagonal: c is observable
iff c_(s2-1) != 0, and the gain is an O(s2^2) back-substitution.  A
non-finite row or |c_(s2-1)| <= _MARGIN * max|c_i| counts as unobservable;
:func:`coupled_do.oracles.ackermann_gain` is the generic reference route.

With x, b, the gain and C(x) held over a step, sigma obeys the linear
dy/dt = M y - Gamma b, and one classical RK4 step is exactly y+ = y +
dt phi(dt M) (M y - Gamma b), phi(X) = I + X/2 + X^2/6 + X^3/24,
evaluated by Horner's rule.
With the row c = C(x), M = A - Gamma c^T is a rank-one update of the
weighted shift: (M v)_k = A_(k,k-1) v_(k-1) - Gamma_k (c . v) costs
O(s2), and M is never formed.

The step and the gain design are generated as straight-line Python for
each model shape (s2, normalize) and compiled once per shape
(:func:`_kernels`): every loop over the s2 time-feature entries and the
s2 Chebyshev terms of Pi(x) is written out as named locals, and each
sum is an explicit left-to-right chain that starts at 0.0, the order of
the loop form kept in ``tests/loop_observer.py``.  IEEE addition and
multiplication are deterministic, so the kernels give the loop form's
bits, which the tests check with ``==``; and the bits do not depend on
the Python version's built-in ``sum``.  The model's numbers enter as
closure variables, never as source text.

The step's lines (:func:`_step_lines`) are the only copy of its
arithmetic.  ``Hodo.step`` runs them between a load and a store of the
observer's state.  The closed loop of :mod:`coupled_do.sim` writes them
into its own generated loop (:func:`loop_step`), with the state kept in
its locals between steps, and compiles it with :func:`build`.  As in
the paper, the step takes the plant terms b as an input, summed by the
caller, so the plant maps and the controls stay outside the observer.
The module imports only :mod:`coupled_do.errors`: the model, a
:class:`coupled_do.learner.SeparatedModel`, is named in annotations only.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError


_MARGIN = 1e-4     # |c_(s2-1)| / max|c_i| at or below which a row is unobservable
_CHUNK = 32        # terms per statement of a generated sum
# the largest s2 compiled: a kernel's source grows as s2^2, and compiling it
# took 0.21 s at s2 = 65, 0.82 s at s2 = 100 and 19.6 s with 206 MB resident
# at s2 = 200 (one 2-vCPU x86_64 machine)
_MAX_S2 = 65


class UnobservableError(NumericalError):
    """The output row fails :class:`Hodo`'s pivot margin, or cond(O) in
    :func:`coupled_do.oracles.ackermann_gain` exceeds 1e8."""


def check_poles(poles, name: str = "poles", count: int = 0) -> np.ndarray:
    """``poles`` as a complex array of ``count`` entries if nonzero; ConfigError
    naming ``name`` unless each is finite with a negative real part and the
    complex ones come in conjugate pairs, so that their polynomial is real."""
    arr = np.atleast_1d(np.asarray(poles, dtype=complex))
    if not (arr.ndim == 1 and np.isfinite(arr).all() and (arr.real < 0).all()):
        raise ConfigError(f"{name}: must be finite and negative, got {poles}")
    if count and arr.shape != (count,):
        raise ConfigError(f"{name}: need {count}, got {arr.shape[0]}")
    if np.abs(np.poly(arr).imag).max() > 1e-9:
        raise ConfigError(f"{name}: must be real or come in conjugate pairs, got {poles}")
    return arr


def _pole_polynomial_of_a(A: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Evaluate the monic polynomial with the given roots, checked by
    :func:`check_poles`, at the matrix A."""
    q_coef = np.poly(poles)
    q_of_a = np.zeros_like(A)
    eye = np.eye(A.shape[0])
    for coef in q_coef.real:
        q_of_a = q_of_a @ A + coef * eye
    return q_of_a


# --- kernel generation -------------------------------------------------------

def _sum(name: str, terms: list) -> list:
    """Lines setting ``name`` to 0.0 + terms[0] + terms[1] + ..., added
    left to right; long sums continue over several statements, which
    keeps the compiler's expression depth bounded."""
    return [f"{name} = {'0.0' if i == 0 else name} + " + " + ".join(terms[i:i + _CHUNK])
            for i in range(0, len(terms), _CHUNK)]


def _unpack(names: list, value: str) -> list:
    return [f"{', '.join(names)}, = {value}"] if names else []


def _row_lines(s2: int, normalize: bool) -> list:
    """Lines computing Pi(x) = [T_0(a), .., T_(s2-1)(a)] and the row c = K
    Pi(x) from the local x0 with the operations of ``BasisConfig.pi_rows``
    on one row; a = x0, or x0 mapped from its box to [-1, 1]."""
    lines, a = [], "x0"
    if normalize and s2 > 1:                    # Pi(x) = [1.0] reads no a
        lines.append("a0 = 2.0 * (x0 - lo0) / sp0 - 1.0")
        a = "a0"
    pi = ["1.0", a][:s2]                        # T_k = 2 a T_(k-1) - T_(k-2)
    for k in range(2, s2):
        lines.append(f"t0_{k} = 2.0 * {a} * {pi[k - 1]} - {pi[k - 2]}")
        pi.append(f"t0_{k}")
    # v * 1.0 is v exactly in IEEE arithmetic, so T_0's factor is left out
    for k in range(s2):
        lines += _sum(f"c{k}", [f"kw{k}_{h}" + ("" if t == "1.0" else f" * {t}")
                                for h, t in enumerate(pi)])
    return lines


def _step_lines(s2: int, normalize: bool) -> tuple[list, ...]:
    """An observer step on locals, as lines (consts, row, load, update, store,
    finish): unpack ``self._consts``; set xw = x0 and the row c0 .. from
    x0; read ``self``'s state into z0 .., ``gain`` (g0 ..), ``cl`` (its
    row), sh0 .., ``failures`` and ``design`` (its ``_design``), with the
    substeps h1 .. h3; check x0 and b0 and advance that state; write it
    back; check sigma_hat and set the estimate e0 = c . sigma_hat.  The
    sums xw = 0.0 + x0 and wd = 0.0 + b0 turn -0.0 into 0.0, as the loop
    form's sums from 0.0 do.

    At s2 = 1, Pi(x) = [1.0], so the row c0 = 0.0 + kw0_0 is a constant
    read with the model's, and the constructor's gain g0 holds for good:
    the step neither builds nor compares a row, and reads no ``gain``,
    ``cl``, ``failures`` or ``design``."""
    ks = range(s2)
    row = ["xw = 0.0 + x0"] + _row_lines(s2, normalize)
    consts = ["kw, A, q, f, lo0, sp0 = self._consts"]
    consts += (_unpack([f"kw{k}_{h}" for k in ks for h in ks], "kw")
               + _unpack([f"A{k}" for k in range(1, s2)], "A")
               + _unpack([f"q{i}_{j}" for i in ks for j in range(i + 1)], "q")
               + _unpack([f"f{k}" for k in ks], "f")
               + ["isfinite = math.isfinite"])
    constant = s2 == 1
    if constant:
        consts += row[1:]

    update = ["if not (isfinite(x0) and isfinite(b0)):",
              "    raise NumericalError(\"non-finite observer inputs\")"]
    update += row[:1] if constant else row
    update += ["wd = 0.0 + b0",
               "# sigma_hat stays continuous: sigma = z + Gamma x holds with the new gain"]
    update += [f"s{k} = z{k} + g{k} * xw" for k in ks]
    if not constant:
        update += [f"c = [{', '.join(f'c{k}' for k in ks)}]      # frozen over the step",
                   "try:",
                   "    # the gain depends on the row alone: an unchanged row keeps it",
                   "    gain = gain if c == cl else design(c)",
                   "    cl = c",
                   "except UnobservableError:",
                   "    failures += 1",
                   f"{', '.join(f'g{k}' for k in ks)}, = gain"]
    update += [f"cv = 0.0 + {' + '.join(f'c{k} * s{k}' for k in ks)} + wd",
               "# v = M sigma - Gamma b with (M v)_k = A_k v_(k-1) - g_k (c . v), then w =",
               "# v + h M w for h = h1, h2, h3 and cw = c . w; A_0 = 0.0, so v_0 = 0.0 - ..."]
    update += [f"v{k} = {f'A{k} * s{k - 1}' if k else '0.0'} - g{k} * cv" for k in ks]
    update += _sum("cw", [f"c{k} * v{k}" for k in ks])
    prev = [f"v{k}" for k in ks]
    for j in range(1, 4):
        update += [f"w{j}_{k} = v{k} + h{j} * ({f'A{k} * {prev[k - 1]}' if k else '0.0'}"
                   f" - g{k} * cw)" for k in ks]
        prev = [f"w{j}_{k}" for k in ks]
        if j < 3:                               # the last pass's c . w is unused
            update += _sum("cw", [f"c{k} * {w}" for k, w in enumerate(prev)])
    for k in ks:
        update += [f"gx = g{k} * xw",
                   f"z{k} = s{k} + dt * w3_{k} - gx",
                   f"sh{k} = z{k} + gx"]
    finish = ["if not (" + " and ".join(f"isfinite(sh{k})" for k in ks) + "):",
              "    raise NumericalError(\"observer state diverged to non-finite values\")"]
    finish += _sum("e0", [f"c{k} * sh{k}" for k in ks])
    zs, gs, shs = (", ".join(f"{v}{k}" for k in ks) for v in ("z", "g", "sh"))
    load = [f"{zs}, = self.z", f"{gs}, = {'' if constant else 'gain = '}self.gain",
            f"{shs}, = self.sigma_hat", "h1, h2, h3 = 0.25 * dt, dt / 3.0, 0.5 * dt"]
    store = [f"self.z, self.sigma_hat = [{zs}], [{shs}]"]
    if not constant:
        load.append("cl, failures, design = self._c, self.gain_failures, self._design")
        store.append("self.gain, self._c, self.gain_failures = gain, cl, failures")
    return consts, row, load, update, store, finish


def loop_step(s2: int, normalize: bool, loop: str) -> tuple[list, list]:
    """The step of an observer of shape (s2, normalize) as lines for the
    source ``loop`` to write in: (setup, step).  ``setup`` reads the
    constants and state of the observer ``self`` into locals; ``step``
    advances that state from the inputs x0, b0 and ``dt``, adds each failed
    design to ``failures``, and leaves sigma_hat in sh0 .. and the estimate
    in e0.  Of the names the lines assign, ``loop`` may use only those
    outputs and ``isfinite`` (AssertionError; attributes are not names).  Compile it with :func:`build`."""
    consts, _, load, update, _, finish = _step_lines(s2, normalize)
    setup, step = consts + load, update + finish
    assigned = {name.strip() for line in setup + step
                for m in [re.match(r"\s*([\w, ]+?)\s*\+?=(?!=)", line)] if m
                for name in m[1].split(",")}
    outputs = {"failures", "isfinite", "e0"} | {f"sh{k}" for k in range(s2)}
    shadowed = assigned & set(re.findall(r"(?<![.\w])[A-Za-z_]\w*", loop)) - outputs
    assert not shadowed, f"the observer step assigns the loop's names {sorted(shadowed)}"
    return setup, step


def _kernel_source(s2: int, normalize: bool) -> str:
    """Source of ``_factory``, which binds one observer and its model's
    constants and returns its kernels (step, design, row).

    ``step(x0, b0, dt)`` is the observer step on floats, with the plant
    terms b0 summed by the caller; it checks dt, then runs the lines of
    :func:`_step_lines`: it checks the finiteness of x0 and b0, advances
    the observer's state and returns the estimate as a tuple of one
    float."""
    consts, row, load, update, store, finish = _step_lines(s2, normalize)
    ks = range(s2)
    cs, gs = [f"c{k}" for k in ks], [f"g{k}" for k in ks]
    src = ["def _factory(self):"] + ["    " + line for line in consts]

    # the state's design row and xw, for the constructor
    src += ["", "    def row(x0):"]
    src += ["        " + line for line in row] + [f"        return [{', '.join(cs)}], xw"]

    # O(c) v = e_s2 with v = diag(j!) y is sum_j h_(j+k) y_j = [k = s2 - 1]:
    # y is the reciprocal power series of r = (c_j j!) reversed
    last = f"c{s2 - 1}"
    design = [f"{', '.join(cs)}, = c",
              f"pivot = abs({last})",
              "# false for a zero pivot and for any non-finite entry",
              "if not (" + " and ".join(f"pivot > _MARGIN * abs(c{k})" for k in ks) + "):",
              f"    raise UnobservableError(f\"output row pivot {{{last}:.2e}} is within \"",
              "                            f\"{_MARGIN:.0e} * max|c_i| of zero\")"]
    design += [f"r{m} = c{s2 - 1 - m} * f{s2 - 1 - m}" for m in ks]
    design.append("y0 = 1.0 / r0")
    for m in range(1, s2):
        design += _sum(f"y{m}", [f"r{m - j} * y{j}" for j in range(m)])
        design.append(f"y{m} = -y{m} / r0")
    for i in ks:                                # q(A) is lower triangular
        design += _sum(f"g{i}", [f"q{i}_{j} * y{j}" for j in range(i + 1)])
    design.append(f"return [{', '.join(gs)}]")
    src += ["", "    def _design(c):"] + ["        " + line for line in design]

    step = ["if not 0 < dt < math.inf:",
            "    raise ValueError(f\"dt must be > 0 and finite, got {dt}\")"]
    step += load + update + store + finish + ["return e0,"]
    src += ["", "    def step(x0, b0, dt):"]
    src += ["        " + line for line in step] + ["", "    return step, _design, row", ""]
    return "\n".join(src)


def build(source: str, filename: str, **names) -> dict:
    """The names that ``source``, generated source holding observer lines,
    defines when run on this module's globals and ``names``."""
    namespace = {}
    exec(compile(source, filename, "exec"), dict(globals(), **names), namespace)
    return namespace


@functools.cache
def _kernels(s2: int, normalize: bool) -> Callable:
    """The compiled kernel factory of one model shape."""
    return build(_kernel_source(s2, normalize),
                  f"<coupled_do.observer kernels s2={s2} normalize={normalize}>")["_factory"]


class Hodo:
    """Higher-order disturbance observer for a separated model of one
    state channel.

    Parameters
    ----------
    model : SeparatedModel
        Identified coefficients and basis; supplies the row
        C(x) = Theta B(x) D and the exosystem matrix A.
    poles : sequence of s2 values
        Desired eigenvalues of the error dynamics: finite, with negative
        real parts (:func:`check_poles`).
    x0 : array_like, shape (1,)
        State at initialization (the first gain is designed here).
    sigma0 : array_like, shape (s2,), optional
        Initial feature estimate; zeros by default (offline and online
        time domains are unrelated, so no warm start is attempted).

    ``step(x0, b0, dt)`` advances the observer by dt, with x0, the plant
    term b0, the gain and C(x) held (module docstring), and returns the
    estimate C(x) sigma_hat as a tuple of one float.  A dt that is not
    finite and > 0 raises ValueError, and a non-finite x0 or b0
    NumericalError, before the state changes.

    A model of order p > 64 raises ConfigError before any kernel is
    generated.  On a normalized model A is scaled by ``model.time_scale``
    = alpha, which the gain undoes by the factor alpha^-(s2-1).  On an
    unobservable row the constructor raises :class:`UnobservableError`,
    and ``step`` keeps the previous gain and counts it in
    ``gain_failures``.  ``sigma_hat``, the auxiliary ``z`` and the gain
    column ``gain`` (Gamma) are lists of s2 Python floats.

    The constructor binds this observer and its model's constants
    (``_consts``: the rows of K, the shift of A, the rows of q(A), the
    factorials and the normalization box) into the straight-line step
    and design generated for its shape (s2, normalize), and ``step`` is
    that generated kernel itself.  They add in the order of the loop
    form in ``tests/loop_observer.py`` and so return its bits exactly
    (module docstring).  The kernel calls ``self._design``, so a
    replacement of ``_design`` on the class or on the instance is
    honoured.
    """

    def __init__(self, model: SeparatedModel, poles, x0, sigma0=None):
        self.model = model
        s2 = model.config.s2
        if s2 > _MAX_S2:
            raise ConfigError(f"basis.p: the observer takes orders up to {_MAX_S2 - 1}, "
                              f"got {model.config.p}")
        self.poles = check_poles(poles, count=s2)
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        if x0.shape != (1,):
            raise ValueError(f"x0 must have the model's n = 1 entries, got shape {x0.shape}")
        sigma0 = np.zeros(s2) if sigma0 is None else np.asarray(sigma0, dtype=float)
        if sigma0.shape != (s2,):
            raise ValueError(f"sigma0 must have the model's s2 = {s2} entries, "
                             f"got shape {sigma0.shape}")
        self.gain_failures = 0

        # c = K Pi(x): row k of K holds the coefficients of c_k
        kw = model.K[0].ravel().tolist()
        # (A v)_k = A_k v_(k-1) with A_k the first subdiagonal
        shift = np.diag(model.A, -1).tolist()
        # (c A^k)_j = alpha^k h_(j+k) / j! with h_i = c_i i!; q(A) absorbs
        # the j!, and alpha^-(s2-1) the row scaling of O.  q(A) is lower
        # triangular like A, so row i needs its first i + 1 entries only.
        fact = np.cumprod(np.r_[1.0, np.arange(1.0, s2)])
        q_fact = (_pole_polynomial_of_a(model.A, self.poles) * fact
                  * model.time_scale ** -(s2 - 1)).tolist()
        q = [qij for i, row in enumerate(q_fact) for qij in row[:i + 1]]
        lo, hi = model.config.x_box.tolist()
        self._consts = (kw, shift, q, fact.tolist(), lo, hi - lo)
        self.step, self._design_kernel, row = _kernels(s2, bool(model.config.normalize))(self)

        self.sigma_hat = sigma0.tolist()
        # the row ``gain`` was designed for, summed as ``step`` sums it
        self._c, xw = row(float(x0[0]))
        self.gain = self._design(self._c)
        self.z = [s - g * xw for s, g in zip(self.sigma_hat, self.gain)]

    def _design(self, c: list) -> list:
        """Gain column g (s2 floats) for the design row c (s2 floats)."""
        return self._design_kernel(c)
