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
    grid: GridSpec = field(repr=False)

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def assemble_matrix(grid: GridSpec, alpha: float) -> OperatorMatrix:
    """Assemble the (M-1)x(M-1) fractional-Laplacian matrix.

    The splitting parameter of the weights (Duo, van Wyk & Zhang, J. Comput.
    Phys. 2018) is fixed at rho = 1 + alpha.  Row structure, with
    chi = rho - 2*alpha = 1 - alpha and kappa the near-field weight:

      * off-diagonal, |i-j| = k >= 2:  -((k+1)^chi - (k-1)^chi) / (2 k^rho)
      * first off-diagonals:           -(2^chi + kappa - 1) / 2
      * diagonal: minus twice the sum of the band weights out to k = M, plus
        the exact tail chi / (alpha M^(2 alpha)) for |x - y| > 2,

    all scaled by C_{1,alpha} * dx^(-2 alpha) / chi.  The scaling makes the
    matrix consistent with the principal-value integral (verified against
    the quadrature oracle); see the module doc.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    rho = 1.0 + alpha
    M = grid.M
    chi = rho - 2.0 * alpha
    # Near-field weight of the near-singular cell: 1 is consistent with the
    # quadrature oracle for every order in (0, 1) and exact for 2*alpha = 1.
    kappa = 1.0

    # the weights of |i-j| = k for k = 2..M: the row needs k <= M-2, the diagonal all
    k = np.arange(2, M + 1, dtype=float)
    weights = ((k + 1.0) ** chi - (k - 1.0) ** chi) / (2.0 * k**rho)
    near = 0.5 * (2.0**chi + kappa - 1.0)
    diagonal = 2.0 * near + 2.0 * np.sum(weights) + chi / (alpha * M ** (2.0 * alpha))

    first_row = np.empty(M - 1)
    first_row[0] = diagonal
    first_row[1] = -near
    first_row[2:] = -weights[: M - 3]
    scale = singular_integral_constant(alpha) * grid.dx ** (-2.0 * alpha) / chi
    entries = scale * toeplitz(first_row)
    return OperatorMatrix(entries=entries, alpha=alpha, grid=grid)
