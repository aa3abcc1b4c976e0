import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchsim import GridSpec, assemble_matrix, singular_integral_constant
from quenchsim.validation import (
    INTERIOR_MARGIN,
    fractional_laplacian_pv,
    operator_oracle_deviation,
)

from helpers import boundary_profile_constant
from naive_reference import naive_matrix, naive_pv_integral


def test_grid_spec_basics():
    g = GridSpec(41)
    assert g.dx * g.M == pytest.approx(2.0, abs=1e-15)
    assert len(g.interior_points) == 40
    assert g.interior_points[0] == pytest.approx(-1.0 + g.dx)


def test_grid_too_small_rejected():
    with pytest.raises(ValueError, match="M >= 3"):
        GridSpec(2)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.6, 0.9])
def test_matrix_structure(alpha):
    op = assemble_matrix(GridSpec(17), alpha)
    A = op.entries
    assert np.array_equal(A, A.T)
    # off-diagonal entries depend on |i - j| only
    for k in range(1, 16):
        band = np.diagonal(A, offset=k)
        assert np.all(band == band[0])
        assert band[0] <= 0.0
    assert np.all(np.diag(A) > 0.0)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.05, 0.95),
    M=st.integers(3, 40),
)
def test_matrix_invariants_property(alpha, M):
    op = assemble_matrix(GridSpec(M), alpha)
    A = op.entries
    assert np.allclose(A, A.T, rtol=0, atol=0)
    assert np.all(np.diag(A) > 0)
    assert np.all(A - np.diag(np.diag(A)) <= 0)


def test_positive_semidefinite_on_random_vectors(rng):
    op = assemble_matrix(GridSpec(31), 0.45)
    for _ in range(50):
        u = rng.standard_normal(op.n)
        assert u @ (op.entries @ u) >= 0.0


def test_invalid_parameters_rejected():
    g = GridSpec(11)
    with pytest.raises(ValueError, match="alpha"):
        assemble_matrix(g, 1.2)
    with pytest.raises(ValueError, match="alpha"):
        assemble_matrix(g, 0.0)


def test_default_rho_is_one_plus_alpha():
    # the splitting parameter is fixed at rho = 1 + alpha; another rho
    # gives a visibly different matrix, so the comparison discriminates
    A = assemble_matrix(GridSpec(11), 0.37).entries
    assert np.allclose(A, naive_matrix(11, 0.37, 1.37), rtol=1e-12, atol=0)
    assert not np.allclose(A, naive_matrix(11, 0.37, 1.5), rtol=1e-3, atol=0)


def test_half_order_and_generic_weights_continuous():
    # 2 alpha = 1 uses the same near-field weight as neighboring orders:
    # matrix entries vary continuously through alpha = 1/2.
    g = GridSpec(21)
    below = assemble_matrix(g, 0.499).entries
    at = assemble_matrix(g, 0.5).entries
    above = assemble_matrix(g, 0.501).entries
    assert np.max(np.abs(at - below)) < 0.05 * np.max(np.abs(at))
    assert np.max(np.abs(above - at)) < 0.05 * np.max(np.abs(at))


def test_apply_reproduces_eigen_identity(op41, pair41):
    residual = op41.entries @ pair41.psi1 - pair41.mu1 * pair41.psi1
    assert np.max(np.abs(residual)) <= 1e-10 * np.linalg.norm(op41.entries, np.inf)


def test_quadrature_oracle_matches_closed_form():
    # the boundary-matched profile maps to a known constant; this pins the
    # oracle (and the kernel constant) independently of the matrix
    for alpha in (0.4, 0.6):
        expected = boundary_profile_constant(alpha)
        u = lambda y: (1.0 - y * y) ** alpha
        for x in (-0.5, 0.0, 0.3):
            val = fractional_laplacian_pv(u, x, alpha)
            assert val == pytest.approx(expected, rel=1e-7)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [0.2, 0.8, 0.9, 0.95])
def test_quadrature_oracle_matches_closed_form_at_any_order(alpha):
    # from alpha of about 0.7 the near field's rounding noise, magnified by
    # xi^(-1-2 alpha), once swamped the integral (19.35 against 1.676 at
    # alpha = 0.9, x = 0.3) and quad warned; the window's nodes of M = 81
    expected = boundary_profile_constant(alpha)
    u = lambda y: (1.0 - y * y) ** alpha
    for x in GridSpec(81).interior_points[10:-10]:
        assert fractional_laplacian_pv(u, x, alpha) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.8])
def test_matrix_matches_closed_form(alpha):
    # the figure-2 orders; A (1-x^2)^alpha against its exact constant on the
    # oracle window, with no quadrature in between, and closer on the finer grid
    expected = boundary_profile_constant(alpha)

    def deviation(M):
        grid = GridSpec(M)
        x = grid.interior_points
        window = np.abs(x) <= 1.0 - INTERIOR_MARGIN + 1e-12
        action = assemble_matrix(grid, alpha).entries @ (1.0 - x * x) ** alpha
        return np.max(np.abs(action[window] / expected - 1.0))

    fine = deviation(81)
    assert fine <= 0.01
    assert fine < deviation(41)


def test_quadrature_oracle_vs_naive_midpoint():
    alpha = 0.6
    u = lambda y: (1.0 - y * y) ** 2
    adaptive = fractional_laplacian_pv(u, 0.25, alpha)
    brute = naive_pv_integral(u, 0.25, alpha)
    assert adaptive == pytest.approx(brute, rel=5e-4)


def test_matrix_action_matches_oracle_m41():
    # alpha=0.6, rho=1+alpha: interior agreement within 2%
    assert operator_oracle_deviation(41, 0.6) <= 0.02


def test_two_grid_consistency_improves():
    for alpha in (0.4, 0.6):
        coarse = operator_oracle_deviation(41, alpha)
        fine = operator_oracle_deviation(81, alpha)
        assert fine < coarse


def test_kernel_constant_value():
    # alpha = 1/2: C = 2 * Gamma(1) / (sqrt(pi) * |Gamma(-1/2)|) = 1/pi
    assert singular_integral_constant(0.5) == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_limit_check_improves_toward_local_operator():
    # alpha -> 1: A s approaches -s'' = (pi/2)^2 s for the first Dirichlet
    # sine mode.  The gap does not vanish at fixed alpha < 1 (the
    # zero-extended sine has a kink at the boundary), but it shrinks.
    g = GridSpec(161)
    s = np.sin(np.pi * (g.interior_points + 1.0) / 2.0)

    def gap(alpha):
        return np.max(np.abs(assemble_matrix(g, alpha).entries @ s - (np.pi / 2.0) ** 2 * s))

    assert gap(0.999) < gap(0.95)


def test_interior_margin_documented_and_used():
    # deviation shrinks as the window shrinks; margin constant stays pinned
    assert INTERIOR_MARGIN == 0.25
    wide = operator_oracle_deviation(41, 0.6, margin=0.1)
    assert operator_oracle_deviation(41, 0.6) <= wide
