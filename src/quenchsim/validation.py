"""Independent reference computations and the runtime invariant suite.

The centerpiece is an adaptive-quadrature evaluation of the fractional
Laplacian's principal-value integral, used as ground truth for the
assembled finite-difference matrix.  `run_validation_suite` bundles the
cross-checks exposed by the CLI `validate` subcommand.  The integrals run
through `bounds._quad` and the dense eigenvalues through numpy's `eigvalsh`,
so `validate` needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import bounds
from .config import RunConfig
from .noise import fgn_autocovariance, fgn_circulant
from .operator import GridSpec, assemble_matrix, singular_integral_constant
from .solver import ModelParams
from .spectral import principal_eigenpair, rayleigh_min_check

# Nodes within this distance of the endpoints are excluded from oracle
# comparisons: sampled profiles like (1-x^2)^alpha have unbounded
# derivatives at the boundary, where pointwise convergence is genuinely slow.
INTERIOR_MARGIN = 0.25


def fractional_laplacian_pv(
    u: Callable[[float], float],
    x: float,
    alpha: float,
) -> float:
    """Evaluate (-Delta)^alpha u(x) by adaptive quadrature of the p.v. integral.

    u is extended by zero outside the domain (-1, 1).  The quadratic
    singularity at zero separation is regularized by subtracting a
    finite-difference second-derivative term analytically; the exterior tail
    where both shifted arguments leave the domain is integrated in closed form.
    The regularized near-field integrand is O(xi^(3 - 2 alpha)), so its part
    below xi = 1e-3 (O(1e-6) relative for a smooth u) is dropped: there the
    second difference is rounding noise, which xi^(-1 - 2 alpha) magnifies
    past the integral itself once alpha exceeds about 0.7.
    """
    if not -1.0 < x < 1.0:
        raise ValueError(f"x={x} must lie inside the domain (-1, 1)")
    c = singular_integral_constant(alpha)

    ux = u(x)
    power = -1.0 - 2.0 * alpha

    def second_difference(xi: float) -> float:
        # u is 0 outside [-1, 1]; for xi > 0, x + xi > -1 and x - xi < 1
        right, left = x + xi, x - xi
        return 2.0 * ux - (u(right) if right <= 1.0 else 0.0) - (u(left) if left >= -1.0 else 0.0)

    def integrand(xi: float) -> float:
        return second_difference(xi) * xi**power

    xi_max = max(1.0 - x, x + 1.0)
    h = 1e-5
    upp = -second_difference(h) / h**2
    delta = 0.005
    xi_min = 1e-3  # see the docstring

    near = bounds._quad(
        lambda xi: integrand(xi) + upp * xi ** (1.0 - 2.0 * alpha), xi_min, delta
    ) - upp * delta ** (2.0 - 2.0 * alpha) / (2.0 - 2.0 * alpha)
    # The integrand varies on the scale of xi near delta, and on the scale of
    # p - xi below each p where x + xi or x - xi leaves the domain (u may end
    # like (p - xi)^alpha); `_quad` does not extrapolate, so a mesh graded by
    # decades toward both starts where its bisections would end.
    ends = (1.0 - x, x + 1.0)
    graded = [10.0 * delta, 100.0 * delta, *(p - 10.0**-k for p in ends for k in range(1, 6))]
    far = bounds._quad(integrand, delta, xi_max, points=[*ends, *graded])
    tail = 2.0 * ux * xi_max ** (-2.0 * alpha) / (2.0 * alpha)
    return c * (near + far + tail)


def operator_oracle_deviation(
    M: int,
    alpha: float,
    margin: float = INTERIOR_MARGIN,
) -> float:
    """Relative interior max-norm gap between A @ u and the p.v. quadrature.

    u is the boundary-matched profile (1-x^2)^alpha.  The comparison window
    excludes nodes within `margin` of the endpoints and is normalized by the
    max oracle magnitude on that window; the quadrature runs on the window's
    nodes only.
    """

    def profile(y):
        return (1.0 - y * y) ** alpha

    grid = GridSpec(M)
    op = assemble_matrix(grid, alpha)
    x = grid.interior_points
    samples = np.array([profile(xi) for xi in x])
    window = np.abs(x) <= 1.0 - margin + 1e-12
    discrete = (op.entries @ samples)[window]
    oracle = np.array([fractional_laplacian_pv(profile, xi, alpha) for xi in x[window]])
    scale = np.max(np.abs(oracle))
    return float(np.max(np.abs(discrete - oracle)) / scale)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_operator_oracle() -> CheckResult:
    devs = {a: operator_oracle_deviation(81, a) for a in (0.4, 0.6)}
    passed = all(v <= 0.02 for v in devs.values())
    detail = ", ".join(f"alpha={a}: {v:.4f}" for a, v in devs.items()) + " (tol 0.02)"
    return CheckResult("operator_pv_oracle", passed, detail)


def _check_fgn_covariance() -> CheckResult:
    n = 2**14
    worst = 0.0
    for hurst, seed in ((0.6, 101), (0.7, 102), (0.9, 103)):
        x = fgn_circulant(n, 1.0, hurst, seed).increments
        lags = np.arange(6)
        emp = np.array([float(np.mean(x[: n - k] * x[k:])) for k in lags])
        theory = fgn_autocovariance(lags, hurst)
        j = np.arange(-400, 401)
        gj = fgn_autocovariance(j, hurst)
        for k in lags:
            se = math.sqrt(
                float(np.sum(gj**2 + fgn_autocovariance(j + k, hurst) * fgn_autocovariance(j - k, hurst)))
                / n
            )
            worst = max(worst, abs(emp[k] - theory[k]) / se)
    return CheckResult(
        "fgn_autocovariance", worst <= 4.0, f"max |z|-score over lags 0-5: {worst:.2f} (tol 4)"
    )


def _check_spectral() -> CheckResult:
    grid = GridSpec(21)
    op = assemble_matrix(grid, 0.6)
    pair = principal_eigenpair(op)
    evals = np.linalg.eigvalsh(op.entries)
    gap = abs(pair.mu1 - evals[0]) / abs(evals[0])
    positive = bool(np.all(pair.psi1 > 0))
    rayleigh = rayleigh_min_check(op, pair, n_trials=100, seed=7)
    passed = gap <= 1e-10 and positive and rayleigh
    return CheckResult(
        "principal_eigenpair",
        passed,
        f"dense-solver gap {gap:.2e}, positive={positive}, rayleigh={rayleigh}",
    )


def _check_bound_inequalities() -> CheckResult:
    params = ModelParams(lam=1e-5, gamma=0.0, H=0.7, T=1.0, N=1024, a_fn=0.1, b_fn=0.1, k_fn=2.0)
    report = bounds.bound_report(RunConfig(params=params, W1=0.5, bound_paths=500, master_seed=5_000))
    mc = report["monte_carlo"]
    empirical, ordered = mc["empirical_P_tau_star_le_T"], mc["per_path_ordering_ok"]
    # an invalid tail bound (w <= nu(T)) fails every comparison as NaN
    tail = math.nan if report["tail_bound"] is None else report["tail_bound"]
    cheb = report["chebyshev_independent"]
    passed = empirical <= tail and empirical <= cheb and ordered
    return CheckResult(
        "bound_inequalities",
        passed,
        f"empirical={empirical:.4f} <= tail={tail:.4f}, chebyshev={cheb:.4f}; "
        f"per-path ordering={ordered}",
    )


def run_validation_suite() -> Sequence[CheckResult]:
    """Run the cross-check battery; every result carries a one-line detail."""
    return [
        _check_operator_oracle(),
        _check_fgn_covariance(),
        _check_spectral(),
        _check_bound_inequalities(),
    ]
