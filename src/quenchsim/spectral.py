"""Principal eigenpair of the discrete nonlocal operator.

The smallest eigenvalue and its positive eigenvector feed the analytic
bound formulas.  Inverse power iteration on even vectors, through the
operator's folded inverse, runs until the max-norm residual is at most
1e-12 times the matrix's infinity norm, which it reaches on every grid
used here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .operator import OperatorMatrix
from .solver import _folded_inverse

_RESIDUAL_TOL = 1e-12
_MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class EigenPair:
    """Smallest eigenvalue with strictly positive, integral-one eigenvector."""

    mu1: float
    psi1: np.ndarray
    residual: float
    dx: float

    def __post_init__(self) -> None:
        self.psi1.setflags(write=False)


def trapezoid_integral(values: np.ndarray, dx: float) -> float:
    """Trapezoidal integral of an interior grid function (zero at both ends)."""
    return float(dx * np.sum(values))


def principal_eigenpair(op: OperatorMatrix) -> EigenPair:
    """Compute (mu1, psi1) by inverse power iteration with shift zero.

    A has nonpositive off-diagonals and commutes with the reflection
    x -> -x, so its principal eigenvalue has a nonnegative eigenvector
    (Perron-Frobenius) whose mirror image is one too, and their sum is even.
    The iteration therefore runs on even vectors, through the folded
    inverse of A, and every product and dot product is elementwise numpy
    with `np.sum`, no BLAS call, so the bits do not depend on the BLAS
    kernel or its thread count.

    The eigenvector sign is fixed positive and the vector renormalized so
    its trapezoidal integral equals one.  Raises NumericalError if A lacks
    either structure or is not positive definite on even vectors, if the
    residual has not reached tolerance within the iteration cap, or if the
    converged vector is not single-signed.
    """
    A = op.entries
    n, h = op.n, (op.n + 1) // 2
    if np.any((A > 0) & ~np.eye(n, dtype=bool)) or not np.array_equal(A, A[::-1, ::-1]):
        raise NumericalError("operator needs nonpositive off-diagonals and mirror symmetry")
    norm_a = float(np.linalg.norm(A, np.inf))
    inverse = _folded_inverse(A)
    v = np.full(n, 1.0 / np.sqrt(n))
    residual = np.inf
    for _ in range(_MAX_ITERATIONS):
        half = np.sum(inverse * v[:h], axis=1)
        v[:h] = half
        v[n - h :] = half[::-1]
        v /= np.sqrt(np.sum(v * v))
        av = np.sum(A * v, axis=1)
        mu = float(np.sum(v * av))
        residual = float(np.max(np.abs(av - mu * v)))
        if residual <= _RESIDUAL_TOL * norm_a:
            break
    else:
        raise NumericalError(
            f"inverse iteration did not converge: last residual {residual:.3e} "
            f"(tolerance {_RESIDUAL_TOL * norm_a:.3e})"
        )
    if np.sum(v) < 0:
        v = -v
    if np.any(v <= 0):
        raise NumericalError("principal eigenvector is not strictly positive")
    dx = op.grid.dx
    psi = v / trapezoid_integral(v, dx)
    return EigenPair(mu1=mu, psi1=psi, residual=residual, dx=dx)


def rayleigh_min_check(
    op: OperatorMatrix, pair: EigenPair, n_trials: int, seed: int
) -> bool:
    """Check mu1 minimizes the quadratic form over random unit vectors."""
    rng = np.random.default_rng(seed)
    A = op.entries
    for _ in range(n_trials):
        u = rng.standard_normal(op.n)
        u /= np.linalg.norm(u)
        if u @ (A @ u) < pair.mu1 - 1e-10:
            return False
    return True


def inner_product_v0_psi1(v0: np.ndarray, pair: EigenPair) -> float:
    """Trapezoidal approximation of Int v0 * psi1 dx over the domain."""
    v0 = np.asarray(v0, dtype=float)
    if v0.shape != pair.psi1.shape:
        raise ValueError(
            f"shape mismatch: v0 has {v0.shape}, eigenvector has {pair.psi1.shape}"
        )
    return trapezoid_integral(v0 * pair.psi1, pair.dx)
