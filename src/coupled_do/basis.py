"""Chebyshev tensor-product bases for separable disturbance models.

A disturbance that couples the system state x with time t is represented
as

    delta(x, t)  ~=  Theta @ B(x) @ xi(t)

where Theta is a constant coefficient matrix, B(x) is a block matrix
built from the state basis vector Pi(x), and xi(t) = [T_0(t), ..., T_p(t)]
is the basis of the scalar time feature.  Each entry of Pi(x) is a
product of Chebyshev polynomials of the first kind, one per state
dimension, indexed by a flat base-(p+1) multi-index.

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


def cheb_series(p: int, tau) -> np.ndarray:
    """[T_0(tau), ..., T_p(tau)] by the recurrence T_k = 2*tau*T_{k-1} - T_{k-2}.

    The terms lie along a new leading axis, shape (p+1,) + shape(tau).
    Outside [-1, 1] they are evaluated as-is, so that observers stay
    total.
    """
    if p < 0:
        raise ValueError(f"order must be >= 0, got {p}")
    tau = np.asarray(tau, dtype=float)
    out = np.ones((p + 1,) + tau.shape)
    if p >= 1:
        out[1] = tau
    for k in range(2, p + 1):
        out[k] = 2.0 * tau * out[k - 1] - out[k - 2]
    return out


def flat_to_multi(h: int, p: int, dims: int) -> tuple[int, ...]:
    """Decode a flat index into per-dimension orders (k_1, ..., k_dims).

    The encoding is positional base-(p+1) with the least significant
    digit first: h = sum_i k_i * (p+1)**(i-1).  This ordering is the
    serialization contract for coefficient matrices and is frozen.
    """
    size = (p + 1) ** dims
    if not 0 <= h < size:
        raise ValueError(f"flat index {h} out of range [0, {size}) for p={p}, dims={dims}")
    digits = []
    for _ in range(dims):
        h, r = divmod(h, p + 1)
        digits.append(r)
    return tuple(digits)


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


def _as_box(box, dims: int, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(box, dtype=float))
    if arr.shape == (1, 2) and dims > 1:
        arr = np.repeat(arr, dims, axis=0)
    if arr.shape != (dims, 2):
        raise ValueError(f"{name} must have shape ({dims}, 2), got {arr.shape}")
    if np.any(arr[:, 0] >= arr[:, 1]):
        raise ValueError(f"{name} lower bounds must be strictly below upper bounds")
    return arr


@dataclass(frozen=True)
class BasisConfig:
    """Shape and normalization of the tensor-product basis.

    Parameters
    ----------
    p : int
        Polynomial order, shared by every state dimension and by time.
    n : int
        State dimension.
    x_box : array_like, shape (n, 2) or (2,)
        Per-dimension state ranges mapped onto [-1, 1] when
        ``normalize`` is set.  A single (lo, hi) pair is broadcast.
    t_box : array_like, shape (2,)
        The (lo, hi) time range mapped onto [-1, 1] when ``normalize``
        is set.
    normalize : bool
        Apply the affine map 2*(v - lo)/(hi - lo) - 1 before basis
        evaluation.  Off by default: identified coefficients then refer
        to Chebyshev polynomials of the raw variables.
    """

    p: int
    n: int
    x_box: np.ndarray = field(default=None)
    t_box: np.ndarray = field(default=None)
    normalize: bool = False

    def __post_init__(self):
        if self.p < 0:
            raise ValueError(f"p must be >= 0, got {self.p}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        x_box = self.x_box if self.x_box is not None else [[-1.0, 1.0]]
        t_box = self.t_box if self.t_box is not None else [-1.0, 1.0]
        object.__setattr__(self, "x_box", _as_box(x_box, self.n, "x_box"))
        object.__setattr__(self, "t_box", _as_box(t_box, 1, "t_box")[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BasisConfig):
            return NotImplemented
        return (self.p == other.p and self.n == other.n
                and self.normalize == other.normalize
                and np.array_equal(self.x_box, other.x_box)
                and np.array_equal(self.t_box, other.t_box))

    @property
    def s1(self) -> int:
        return (self.p + 1) ** (self.n + 1)

    @property
    def s2(self) -> int:
        return self.p + 1

    @property
    def state_block(self) -> int:
        """Length of Pi(x), the per-column block of B(x)."""
        return (self.p + 1) ** self.n

    def pi_rows(self, x: np.ndarray) -> np.ndarray:
        """Pi(x) over a batch of states, shape (N, (p+1)^n): entry h_k of a
        row is prod_i T_{k_i}(x_i), h_k encoded as by :func:`flat_to_multi`."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(f"state batch must have shape (N, {self.n}), got {x.shape}")
        if self.normalize:
            lo, hi = self.x_box.T
            x = 2.0 * (x - lo) / (hi - lo) - 1.0
        acc = cheb_series(self.p, x[:, 0])
        for i in range(1, self.n):
            acc = [t * a for t in cheb_series(self.p, x[:, i]) for a in acc]
        return np.asarray(acc).T

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
