"""Semi-implicit Euler stepping of the stochastic membrane equation.

State u lives on the interior grid nodes; the nonlocal diffusion is treated
implicitly through a single Cholesky factorization of (I + dt*A) reused by
every step and realization, while the singular source lambda / (1-u)^2
- gamma * (1-u) and the multiplicative noise kick are explicit.  A
realization quenches when max_j u_j exceeds 1 - epsilon; the quench time is
reported as the last compliant step time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericalError
from .noise import CoefficientLike, bm_increments, fgn_circulant
from .operator import GridSpec, OperatorMatrix, assemble_matrix
from .seeding import derive_seed

MACHINE_EPSILON = 2.2204e-16


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of one model configuration.

    a_fn, b_fn, k_fn describe the time coefficients of the mixed noise and
    the diffusion clock used by the analytic bounds; the solver's noise
    injection itself is kappa1 * dB + kappa2 * dB^H with raw increments
    (dB ~ Normal(0, dt), dB^H fractional Gaussian noise of variance dt^2H),
    which makes the update a consistent Euler-Maruyama/Young step.
    """

    lam: float = 0.4
    gamma: float = 0.0
    alpha: float = 0.6
    H: float = 0.7
    kappa1: float = 0.1
    kappa2: float = 0.1
    c: float = 0.1
    T: float = 1.0
    N: int = 10_000
    M: int = 41
    a_fn: CoefficientLike = 1.0
    b_fn: CoefficientLike = 1.0
    k_fn: CoefficientLike = 2.0
    epsilon: float = MACHINE_EPSILON

    def __post_init__(self) -> None:
        if not 0.0 <= self.c < 1.0:
            raise ValueError(f"initial amplitude must satisfy 0 <= c < 1, got {self.c}")
        if self.T <= 0:
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if self.N < 1:
            raise ValueError(f"step count N must be >= 1, got {self.N}")
        for name in ("lam", "gamma", "kappa1", "kappa2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.5 <= self.H < 1.0:
            raise ValueError(f"Hurst index must lie in [1/2, 1), got {self.H}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.M)


@dataclass(frozen=True)
class RealizationResult:
    """Outcome of one realization."""

    quenched: bool
    T_q: float | None
    steps_taken: int
    embedding_warning: bool = False
    failed: bool = False
    sup_norm_series: np.ndarray | None = None


@dataclass(frozen=True)
class Factorization:
    """Cholesky factorization of the stepping matrix I + dt*A."""

    _factor: tuple = field(repr=False)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve(self._factor, rhs)


def initial_condition(grid: GridSpec, c: float) -> np.ndarray:
    """u0(x) = c (1 - x^2) sampled at interior nodes."""
    if not 0.0 <= c < 1.0:
        raise ValueError(f"initial amplitude must satisfy 0 <= c < 1, got {c}")
    x = grid.interior_points
    return c * (1.0 - x * x)


def factorize(op: OperatorMatrix, dt: float) -> Factorization:
    """Factor I + dt*A once; the matrix is SPD so Cholesky always succeeds."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    stepping = np.eye(op.n) + dt * op.entries
    try:
        factor = cho_factor(stepping)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD by construction
        raise NumericalError(f"stepping matrix is not positive definite: {exc}") from exc
    return Factorization(_factor=factor)


def _sample_increments(params: ModelParams, seed: int):
    """Component streams of one realization (indices 1: Brownian, 2: fGN)."""
    db = bm_increments(params.N, params.dt, derive_seed(seed, 1))
    fgn = fgn_circulant(params.N, params.dt, params.H, derive_seed(seed, 2))
    return db, fgn.increments, fgn.eigenvalue_clipped


def simulate_batch(
    op: OperatorMatrix,
    factor: Factorization,
    params: ModelParams,
    seeds: Sequence[int],
    observer: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
) -> list[RealizationResult]:
    """Advance a batch of realizations in lock step sharing one factorization.

    Each step solves (I + dt*A) u_next = u + dt*g(u) + (1-u)^+ (kappa1 dB +
    kappa2 dB^H) with g(u) = lambda / (1-u)^2 - gamma (1-u).  Each column
    evolves independently from its own seed-derived increments, so results
    are identical whether realizations run alone or batched.  Quench
    detection runs before the source evaluation each step; quenched and
    failed columns are frozen immediately.

    `observer(n, u, active)`, when given, is called at the start of every
    step n = 0..N before quench detection, with the state u (interior nodes
    by batch column) and the mask of columns still running.  Both arrays are
    live: an observer that keeps them must copy.
    """
    n_batch = len(seeds)
    dt, n_steps = params.dt, params.N
    threshold = 1.0 - params.epsilon

    db = np.empty((n_steps, n_batch))
    dbh = np.empty((n_steps, n_batch))
    warn = np.zeros(n_batch, dtype=bool)
    for j, seed in enumerate(seeds):
        db[:, j], dbh[:, j], warn[j] = _sample_increments(params, seed)

    u = np.tile(initial_condition(params.grid, params.c)[:, None], (1, n_batch))
    active = np.ones(n_batch, dtype=bool)
    quench_time = np.full(n_batch, np.nan)
    failed = np.zeros(n_batch, dtype=bool)
    steps_taken = np.zeros(n_batch, dtype=int)

    for n in range(n_steps + 1):
        if observer is not None:
            observer(n, u, active)
        col_max = np.max(u, axis=0)
        bad = active & ~np.isfinite(col_max)
        if np.any(bad):
            failed[bad] = True
            active[bad] = False
        newly = active & (col_max > threshold)
        if np.any(newly):
            quench_time[newly] = max(n - 1, 0) * dt
            active[newly] = False
        if n == n_steps or not np.any(active):
            break
        idx = np.where(active)[0]
        ua = u[:, idx]
        g = params.lam / (1.0 - ua) ** 2 - params.gamma * (1.0 - ua)
        kick = np.maximum(1.0 - ua, 0.0) * (
            params.kappa1 * db[n, idx] + params.kappa2 * dbh[n, idx]
        )
        u[:, idx] = factor.solve(ua + dt * g + kick)
        steps_taken[idx] += 1

    results = []
    for j in range(n_batch):
        quenched = not np.isnan(quench_time[j])
        results.append(
            RealizationResult(
                quenched=quenched,
                T_q=float(quench_time[j]) if quenched else None,
                steps_taken=int(steps_taken[j]),
                embedding_warning=bool(warn[j]),
                failed=bool(failed[j]),
            )
        )
    return results


def run_realization(params: ModelParams, seed: int) -> RealizationResult:
    """Run a single realization to quenching or the horizon.

    The result carries the sup-norm series max_j |u_j| of every state up to
    and including the one that quenched.  Deterministic: identical
    (params, seed) reproduce the result bitwise.
    """
    op = assemble_matrix(params.grid, params.alpha)
    factor = factorize(op, params.dt)
    series: list[float] = []

    def record(n: int, u: np.ndarray, active: np.ndarray) -> None:
        if active[0]:
            series.append(float(np.max(np.abs(u[:, 0]))))

    result = simulate_batch(op, factor, params, [seed], observer=record)[0]
    return replace(result, sup_norm_series=np.asarray(series))
