"""Finite-difference matrix for the 1-D fractional Laplacian on [-1, 1].

The operator acts on functions that vanish on the whole complement of
(-1, 1) (extended homogeneous Dirichlet conditions).  The discretization is
a weighted-trapezoidal quadrature of the principal-value integral

    (-Delta)^alpha u(x) = C_{1,alpha} p.v. Int (u(x) - u(y)) |x-y|^(-1-2a) dy

on a uniform grid, yielding a dense symmetric matrix that is Toeplitz off
the diagonal.  `quenchsim.validation.fractional_laplacian_pv` provides the
independent quadrature evaluation of the same integral used to verify the
assembled matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import toeplitz
from scipy.special import gamma as _gamma


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with M subintervals of [-1, 1]; unknowns are interior only."""

    M: int

    def __post_init__(self) -> None:
        if self.M < 3:
            raise ValueError(f"grid needs M >= 3 subintervals, got M={self.M}")

    @property
    def dx(self) -> float:
        return 2.0 / self.M

    @property
    def n_interior(self) -> int:
        return self.M - 1

    @property
    def interior_points(self) -> np.ndarray:
        """x_j = -1 + j*dx for j = 1..M-1."""
        return -1.0 + self.dx * np.arange(1, self.M)


def singular_integral_constant(alpha: float) -> float:
    """Kernel constant C_{1,alpha} = 4^a Gamma(1/2+a) / (sqrt(pi) |Gamma(-a)|)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return 4.0**alpha * _gamma(0.5 + alpha) / (np.sqrt(np.pi) * abs(_gamma(-alpha)))


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense symmetric discretization of (-Delta)^alpha with Dirichlet exterior."""

    entries: np.ndarray
    alpha: float
    rho: float
    grid: GridSpec = field(repr=False)

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def assemble_matrix(grid: GridSpec, alpha: float, rho: float | None = None) -> OperatorMatrix:
    """Assemble the (M-1)x(M-1) fractional-Laplacian matrix.

    The default splitting parameter is rho = 1 + alpha.  Row structure, with
    chi = rho - 2*alpha and kappa the near-field weight:

      * off-diagonal, |i-j| = k >= 2:  -((k+1)^chi - (k-1)^chi) / (2 k^rho)
      * first off-diagonals:           -(2^chi + kappa - 1) / 2
      * diagonal: minus twice the sum of the band weights out to k = M, plus
        the exact tail chi / (alpha M^(2 alpha)) for |x - y| > 2,

    all scaled by C_{1,alpha} * dx^(-2 alpha) / chi.  The scaling makes the
    matrix consistent with the principal-value integral (verified against
    the quadrature oracle); see the module doc.
    """
    if rho is None:
        rho = 1.0 + alpha
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not 2.0 * alpha < rho <= 2.0:
        raise ValueError(
            f"splitting parameter rho must lie in (2*alpha, 2], got rho={rho} "
            f"for alpha={alpha}"
        )
    M = grid.M
    chi = rho - 2.0 * alpha
    # Near-field weight of the near-singular cell: 1 is consistent with the
    # quadrature oracle for every order in (0, 1) and exact for 2*alpha = 1.
    kappa = 1.0

    k = np.arange(2, M + 1, dtype=float)
    band = np.zeros(M)
    band[1] = 0.5 * (2.0**chi + kappa - 1.0)
    band[2:] = ((k[:-1] + 1.0) ** chi - (k[:-1] - 1.0) ** chi) / (2.0 * k[:-1] ** rho)

    tail_weights = ((k + 1.0) ** chi - (k - 1.0) ** chi) / (2.0 * k**rho)
    diagonal = 2.0 * band[1] + 2.0 * np.sum(tail_weights) + chi / (alpha * M ** (2.0 * alpha))

    first_row = np.empty(M - 1)
    first_row[0] = diagonal
    first_row[1:] = -band[1 : M - 1]
    scale = singular_integral_constant(alpha) * grid.dx ** (-2.0 * alpha) / chi
    entries = scale * toeplitz(first_row)
    return OperatorMatrix(entries=entries, alpha=alpha, rho=rho, grid=grid)


def apply_operator(op: OperatorMatrix, u: np.ndarray) -> np.ndarray:
    """Matrix-vector product A @ u on interior values."""
    u = np.asarray(u, dtype=float)
    if u.shape[0] != op.n:
        raise ValueError(f"vector length {u.shape[0]} != interior size {op.n}")
    return op.entries @ u


def laplacian_limit_check(
    grid: GridSpec,
    alpha: float,
    samples: np.ndarray | None = None,
    reference: np.ndarray | None = None,
) -> float:
    """Max-norm gap between A @ s and -s'' for a smooth Dirichlet profile.

    Diagnostic for the local limit alpha -> 1: by default s is the first
    Dirichlet sine mode sin(pi (x+1) / 2), whose negated second derivative
    is (pi/2)^2 s.  Returns the discrepancy over all interior nodes; the
    caller decides what is acceptable.  Note the discrepancy does not vanish
    with grid refinement at fixed alpha < 1: the zero-extended sine has a
    gradient kink at the boundary, so the fractional operator genuinely
    differs from -s'' near the endpoints.
    """
    if alpha < 0.95:
        raise ValueError(f"limit check is meaningful for alpha >= 0.95, got {alpha}")
    if samples is None:
        x = grid.interior_points
        samples = np.sin(np.pi * (x + 1.0) / 2.0)
        reference = (np.pi / 2.0) ** 2 * samples
    elif reference is None:
        raise ValueError("reference values are required with custom samples")
    op = assemble_matrix(grid, alpha)
    return float(np.max(np.abs(apply_operator(op, samples) - reference)))


def matrix_to_csv(op: OperatorMatrix, path) -> None:
    """Dump the matrix row-major as headerless CSV for external cross-checks."""
    np.savetxt(path, op.entries, delimiter=",")
