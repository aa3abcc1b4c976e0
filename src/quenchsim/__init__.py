"""Simulator and analytic bound calculator for noise-driven quenching in a
one-dimensional fractional-diffusion membrane model."""

from .bounds import (
    BoundParams,
    M_of,
    bound_monte_carlo,
    bound_report,
    chebyshev_bounds,
    eigen_mu,
    gamma_lower_bound,
    nu_of,
    tail_upper_bound,
)
from .config import emit_config, emit_table, parse_config
from .ensemble import EnsembleStats, estimate, sweep
from .errors import ConfigError, NumericalError
from .noise import bm_increments, fgn_autocovariance, fgn_circulant
from .operator import GridSpec, assemble_matrix, singular_integral_constant
from .seeding import derive_seed
from .solver import ModelParams, RealizationResult, factorize, initial_condition, run_realization
from .spectral import inner_product_v0_psi1, principal_eigenpair, rayleigh_min_check

__version__ = "0.1.0"

__all__ = [
    "BoundParams",
    "ConfigError",
    "EnsembleStats",
    "GridSpec",
    "M_of",
    "ModelParams",
    "NumericalError",
    "RealizationResult",
    "assemble_matrix",
    "bm_increments",
    "bound_monte_carlo",
    "bound_report",
    "chebyshev_bounds",
    "derive_seed",
    "eigen_mu",
    "emit_config",
    "emit_table",
    "estimate",
    "factorize",
    "fgn_autocovariance",
    "fgn_circulant",
    "gamma_lower_bound",
    "initial_condition",
    "inner_product_v0_psi1",
    "nu_of",
    "parse_config",
    "principal_eigenpair",
    "rayleigh_min_check",
    "run_realization",
    "singular_integral_constant",
    "sweep",
    "tail_upper_bound",
]
