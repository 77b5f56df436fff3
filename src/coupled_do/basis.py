"""Chebyshev bases for separable disturbance models of one state channel.

A disturbance that couples the scalar state x with time t is represented
as

    delta(x, t)  ~=  Theta @ B(x) @ xi(t)

where Theta is a constant coefficient row, B(x) = kron(I, Pi(x)) is a
block matrix built from the state basis vector Pi(x) = [T_0(x), ...,
T_p(x)], and xi(t) = [T_0(t), ..., T_p(t)] is the basis of the scalar
time feature, both Chebyshev polynomials of the first kind.

:meth:`BasisConfig.pi_rows` (Pi(x)) and :meth:`BasisConfig.design_rows`
(B(x) xi(t)) are the one route from states and times to these features,
for a batch of points; a single point is a batch of one.

This module also provides the two structural matrices of the time
feature: the lower-triangular change of basis D with xi(t) = D @ varsigma(t)
for the monomial vector varsigma(t) = [1, t, ..., t^p], and the nilpotent
companion matrix A with d/dt varsigma = A varsigma.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


def check_order(p, name: str = "basis.p") -> int:
    """``p`` as an int; ConfigError naming ``name`` unless it is a whole number >= 0."""
    if not (p >= 0 and float(p).is_integer()):
        raise ConfigError(f"{name}: must be an integer >= 0, got {p}")
    return int(p)


def check_box(box, name: str) -> np.ndarray:
    """``box``, one (lo, hi) pair or a list holding one, as a float array of
    shape (2,); ConfigError naming ``name`` unless it is one pair with lo < hi."""
    arr = np.asarray(box, dtype=float)
    if arr.shape not in ((2,), (1, 2)) or not arr.flat[0] < arr.flat[1]:
        raise ConfigError(f"{name}: expected one (lo, hi) pair with lo < hi, got {box}")
    return arr.reshape(2)


def cheb_series(p: int, tau) -> np.ndarray:
    """[T_0(tau), ..., T_p(tau)] by the recurrence T_k = 2*tau*T_{k-1} - T_{k-2}.

    The terms lie along a new leading axis, shape (p+1,) + shape(tau).
    Outside [-1, 1] they are evaluated as-is, so that observers stay
    total.
    """
    p = check_order(p)
    tau = np.asarray(tau, dtype=float)
    out = np.ones((p + 1,) + tau.shape)
    if p >= 1:
        out[1] = tau
    for k in range(2, p + 1):
        out[k] = 2.0 * tau * out[k - 1] - out[k - 2]
    return out


def structure_matrices(s2: int) -> tuple[np.ndarray, np.ndarray]:
    """Build the s2 x s2 structure matrices (D, A) of the time-feature model.

    Row i of D holds the monomial coefficients of T_{i-1}; rows follow
    the recurrence row_i = 2*rightshift(row_{i-1}) - row_{i-2}, where
    rightshift is a unit shift of the coefficient vector (multiplication
    by t).  A has A[i, j] = j on the first subdiagonal (i = j + 1,
    1-based) and zeros elsewhere, so that d/dt [1, t, ..., t^p] = A @ [.].
    """
    if s2 < 1:
        raise ValueError(f"s2 must be >= 1, got {s2}")
    D = np.zeros((s2, s2))
    D[0, 0] = 1.0
    if s2 > 1:
        D[1, 1] = 1.0
    for i in range(2, s2):
        D[i, 1:] = 2.0 * D[i - 1, :-1]
        D[i] -= D[i - 2]
    A = np.diag(np.arange(1.0, s2), k=-1)
    return D, A


@dataclass(frozen=True)
class BasisConfig:
    """Shape and normalization of the basis of one state channel.

    Parameters
    ----------
    p : int
        Polynomial order, shared by the state and by time.
    n : int
        State dimension: 1, the one value accepted, kept as the field
        that model files record.
    x_box, t_box : array_like, shape (2,)
        The (lo, hi) state and time ranges mapped onto [-1, 1] when
        ``normalize`` is set; [-1, 1] by default.
    normalize : bool
        Apply the affine map 2*(v - lo)/(hi - lo) - 1 before basis
        evaluation.  Off by default: identified coefficients then refer
        to Chebyshev polynomials of the raw variables.
    """

    p: int
    n: int = 1
    x_box: np.ndarray = field(default=None)
    t_box: np.ndarray = field(default=None)
    normalize: bool = False

    def __post_init__(self):
        object.__setattr__(self, "p", check_order(self.p))
        if self.n != 1:
            raise ConfigError(f"basis.n: the basis spans one state channel, n = 1, got {self.n}")
        for name in ("x_box", "t_box"):
            box = getattr(self, name)
            object.__setattr__(self, name, check_box(
                [-1.0, 1.0] if box is None else box, f"basis.{name}"))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasisConfig):
            return NotImplemented
        return (self.p == other.p and self.normalize == other.normalize
                and np.array_equal(self.x_box, other.x_box)
                and np.array_equal(self.t_box, other.t_box))

    @property
    def s1(self) -> int:
        return self.s2 ** 2

    @property
    def s2(self) -> int:
        return self.p + 1

    def pi_rows(self, x: np.ndarray) -> np.ndarray:
        """Pi(x) = [T_0(x), ..., T_p(x)] over a batch of states of shape
        (N, 1), shape (N, p+1)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != 1:
            raise ValueError(f"state batch must have shape (N, 1), got {x.shape}")
        if self.normalize:
            lo, hi = self.x_box
            x = 2.0 * (x - lo) / (hi - lo) - 1.0
        return cheb_series(self.p, x[:, 0]).T

    def design_rows(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Rows B(x_i) @ xi(t_i) = kron(xi_i, Pi_i), shape (N, s1): the
        regression feature map, so Theta @ design_rows(...).T evaluates
        the separated model on a batch."""
        pi = self.pi_rows(x)
        t = np.asarray(t, dtype=float)
        if self.normalize:
            lo, hi = self.t_box
            t = 2.0 * (t - lo) / (hi - lo) - 1.0
        xi = cheb_series(self.p, t).T
        if xi.shape != (len(pi), self.s2):
            raise ValueError(f"times must have shape ({len(pi)},), got {np.shape(t)}")
        return (xi[:, :, None] * pi[:, None, :]).reshape(len(pi), self.s1)
