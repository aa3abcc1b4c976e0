import numpy as np
import pytest
from scipy.linalg import eigh

from quenchsim import (
    GridSpec,
    NumericalError,
    assemble_matrix,
    initial_condition,
    inner_product_v0_psi1,
    principal_eigenpair,
    rayleigh_min_check,
)
from quenchsim.operator import OperatorMatrix
from quenchsim.spectral import trapezoid_integral


def _wrap(entries, M):
    grid = GridSpec(M)
    return OperatorMatrix(entries=np.asarray(entries, float), alpha=0.5, grid=grid)


def test_identity_matrix():
    op = _wrap(np.eye(4), 5)
    pair = principal_eigenpair(op)
    assert pair.mu1 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(pair.psi1, pair.psi1[0])
    assert trapezoid_integral(pair.psi1, op.grid.dx) == pytest.approx(1.0, abs=1e-12)


def test_two_by_two_hand_solved():
    # [[2,-1],[-1,2]]: eigenvalues 1 and 3; ground vector proportional to (1,1)
    op = _wrap([[2.0, -1.0], [-1.0, 2.0]], 3)
    pair = principal_eigenpair(op)
    assert pair.mu1 == pytest.approx(1.0, abs=1e-12)
    assert pair.psi1[0] == pytest.approx(pair.psi1[1], rel=1e-12)


def test_fractional_matrix_eigenpair_positive(op41, pair41):
    assert pair41.mu1 > 0.0
    assert np.all(pair41.psi1 > 0.0)
    assert np.ptp(np.sign(pair41.psi1)) == 0.0  # single-signed
    norm = trapezoid_integral(pair41.psi1, op41.grid.dx)
    assert norm == pytest.approx(1.0, abs=1e-10)
    residual = np.max(np.abs(op41.entries @ pair41.psi1 - pair41.mu1 * pair41.psi1))
    assert residual <= 1e-10 * np.linalg.norm(op41.entries, np.inf)


def test_matches_dense_eigensolver_m21():
    op = assemble_matrix(GridSpec(21), 0.6)
    pair = principal_eigenpair(op)
    evals, evecs = eigh(op.entries)
    assert abs(pair.mu1 - evals[0]) <= 1e-10 * abs(evals[0])
    dense = np.abs(evecs[:, 0])
    dense /= trapezoid_integral(dense, op.grid.dx)
    assert np.max(np.abs(dense - pair.psi1)) <= 1e-8


def test_rayleigh_minimum(op41, pair41, rng):
    assert rayleigh_min_check(op41, pair41, n_trials=100, seed=8)
    # eigenvector itself attains the minimum
    v = pair41.psi1 / np.linalg.norm(pair41.psi1)
    assert v @ (op41.entries @ v) == pytest.approx(pair41.mu1, rel=1e-10)


def test_rayleigh_orthogonal_complement_dominated_by_second_eigenvalue():
    op = assemble_matrix(GridSpec(11), 0.6)
    pair = principal_eigenpair(op)
    evals, _ = eigh(op.entries)
    rng = np.random.default_rng(12)
    psi_unit = pair.psi1 / np.linalg.norm(pair.psi1)
    for _ in range(25):
        u = rng.standard_normal(op.n)
        u -= (u @ psi_unit) * psi_unit
        u /= np.linalg.norm(u)
        quotient = u @ (op.entries @ u)
        assert quotient >= evals[1] - 1e-10
        assert quotient >= pair.mu1


def test_inner_product_basics(grid41, pair41):
    zeros = np.zeros(grid41.M - 1)
    assert inner_product_v0_psi1(zeros, pair41) == 0.0
    self_product = inner_product_v0_psi1(pair41.psi1, pair41)
    assert self_product == pytest.approx(
        trapezoid_integral(pair41.psi1**2, grid41.dx)
    )
    assert self_product > 0.0
    with pytest.raises(ValueError, match="shape"):
        inner_product_v0_psi1(np.zeros(3), pair41)


def test_inner_product_refinement_oracle(grid41, pair41):
    # quadrature + eigenvector discretization error behaves like O(dx^2):
    # compare against a 10x refined grid (frozen bound: 2 * dx^2 covers the
    # measured gap with margin)
    v0 = initial_condition(grid41, 0.1)
    coarse = inner_product_v0_psi1(v0, pair41)
    fine_grid = GridSpec(410)
    fine_pair = principal_eigenpair(assemble_matrix(fine_grid, 0.6))
    fine = inner_product_v0_psi1(initial_condition(fine_grid, 0.1), fine_pair)
    assert abs(coarse - fine) <= 2.0 * grid41.dx**2


def test_nonconvergence_reports_residual():
    # a defective case is hard to trigger with SPD input; exercise the
    # positivity failure branch instead with an indefinite matrix
    bad = _wrap([[1.0, 2.0], [2.0, 1.0]], 3)  # eigenvalues 3 and -1
    with pytest.raises((NumericalError, np.linalg.LinAlgError)):
        principal_eigenpair(bad)
