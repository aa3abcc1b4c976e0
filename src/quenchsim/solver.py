"""Semi-implicit Euler stepping of the stochastic membrane equation.

State u lives on the interior grid nodes; the nonlocal diffusion is treated
implicitly through (I + dt*A)^-1, formed once by Gauss-Jordan elimination
and applied by matrix product to every step and realization, while the
singular source lambda / (1-u)^2 - gamma * (1-u) and the multiplicative
noise kick are explicit.  A realization quenches when max_j u_j exceeds
1 - epsilon; the quench time is reported as the last compliant step time.
The caller hands in the drive (`noise.batch_drive`).  Realizations are
stepped packed, as a contiguous block of columns.  One that stops is
parked at rest in place, and the pack is re-laid without the parked
columns only when that saves a block of the solve.  One call can step
several lambda values on the same noise, one batch each.

The kernel steps half the nodes.  It relies on two preconditions: the
initial data is even in x, and the noise is spatially uniform (one scalar
kappa1 dB + kappa2 dB^H per step, the same at every node).  A is a
symmetric Toeplitz matrix, so it commutes with the reflection x -> -x, and
the source and the kick are pointwise; under both preconditions every state
is even.  Only the first h = ceil((M-1)/2) nodes are stepped, through the
folded inverse (see `factorize`), and the full state is unfolded for the
observer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from numbers import Real
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .operator import GridSpec, OperatorMatrix

MACHINE_EPSILON = 2.2204e-16


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of one model configuration.

    a_fn, b_fn and k_fn are the constant coefficients a, b of the mixed
    process N_t = a B_t + b B^H_t and k of the diffusion clock K(t) = k^2 t / 2
    that the analytic bounds use (config keys a, b, k).  The solver's noise
    injection itself is kappa1 * dB + kappa2 * dB^H with raw increments
    (dB ~ Normal(0, dt), dB^H fractional Gaussian noise of variance dt^2H),
    which makes the update a consistent Euler-Maruyama/Young step.  Every
    float field must be finite.  Errors name a field by its config key.
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
    a_fn: float = 1.0
    b_fn: float = 1.0
    k_fn: float = 2.0
    epsilon: float = MACHINE_EPSILON

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not (isinstance(value, Real) and math.isfinite(value)):
                key = _RENAMED.get(f.name, f.name)
                raise ValueError(f"{key} must be a finite number, got {value!r}")
        if not 0.0 <= self.c < 1.0:
            raise ValueError(f"initial amplitude must satisfy 0 <= c < 1, got {self.c}")
        if self.T <= 0:
            raise ValueError(f"horizon T must be positive, got {self.T}")
        if self.N < 1:
            raise ValueError(f"step count N must be >= 1, got {self.N}")
        if not self.T / self.N > 0:
            raise ValueError(f"step T / N underflows to 0 at T = {self.T!r}, N = {self.N}")
        if self.M < 3:
            raise ValueError(f"space subintervals M must be >= 3, got {self.M}")
        for name in ("lam", "gamma", "kappa1", "kappa2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{_RENAMED.get(name, name)} must be non-negative")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0.5 <= self.H < 1.0:
            raise ValueError(f"Hurst index must lie in [1/2, 1), got {self.H}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def grid(self) -> GridSpec:
        return GridSpec(self.M)


# Config key -> (ModelParams field, value type).  A key is its field's name
# but for the four renamed here.  The config parser and emitter and the
# sweep axes all read this one table.
_RENAMED = {"lam": "lambda", "a_fn": "a", "b_fn": "b", "k_fn": "k"}
MODEL_KEYS = {
    _RENAMED.get(f.name, f.name): (f.name, int if f.type == "int" else float)
    for f in fields(ModelParams)
}


@dataclass(frozen=True)
class RealizationResult:
    """Outcome of one realization."""

    quenched: bool
    T_q: float | None
    steps_taken: int
    failed: bool = False
    sup_norm_series: np.ndarray | None = None


# Column width of every product with the inverse.  A product R @ X is not
# bit-identical per column across widths of X: BLAS sends a single column to
# gemv, whose last bits differ from gemm's, and a gemm build may pick its
# kernel by width.  One fixed gemm shape gives each column the same bits
# whatever the other columns hold and wherever the column sits (checked for
# widths 4 to 256 at M = 41 and M = 321 on OpenBLAS 0.3.31), which keeps a
# realization's result independent of its batch.  `solve` multiplies all
# full blocks in one stacked matmul, which keeps those bits (see there).
BLOCK = 64


@dataclass(frozen=True)
class Factorization:
    """The inverse of the stepping matrix I + dt*A, folded onto half the nodes.

    `_inverse` is the h x h matrix (R E)[:h], where R = (I + dt*A)^-1 on the
    n = M-1 interior nodes, h = ceil(n/2), and E (n x h) copies half-node j
    onto node j and its mirror node n-1-j (once when they coincide).
    """

    _inverse: np.ndarray = field(repr=False)

    def solve(self, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(I + dt*A)^-1 rhs for mirror-symmetric rhs, on the first h nodes.

        `rhs` is a vector or an (h, k) block of columns holding the first h
        entries of each mirror-symmetric right-hand side; the result holds
        the first h entries of each solution, which is mirror-symmetric too.
        `out`, when given, receives the result.

        The columns are multiplied BLOCK at a time, the last block
        zero-padded to full width.  The full blocks go to one stacked
        matmul over the (k // BLOCK, h, BLOCK) views of `rhs` and `out`;
        splitting the column axis is always a view, never a copy.  numpy
        runs gemm on each block in turn with the same shape, strides and
        pointers as a matmul of that block alone, so every column keeps
        the bits of a per-block product.
        """
        if rhs.ndim == 1:
            return self.solve(rhs[:, None], None if out is None else out[:, None])[:, 0]
        inverse = self._inverse
        n, k = rhs.shape
        if out is None:
            out = np.empty((n, k))
        full = k - k % BLOCK
        if full:
            np.matmul(inverse, _blocks(rhs[:, :full]), out=_blocks(out[:, :full]))
        if full < k:
            pad = np.zeros((n, BLOCK))
            pad[:, : k - full] = rhs[:, full:]
            out[:, full:] = (inverse @ pad)[:, : k - full]
        return out


def _blocks(a: np.ndarray) -> np.ndarray:
    """The (k // BLOCK, h, BLOCK) view of an (h, k) array, block b first."""
    return a.reshape(a.shape[0], -1, BLOCK).transpose(1, 0, 2)


def initial_condition(grid: GridSpec, c: float) -> np.ndarray:
    """u0(x) = c (1 - x^2) sampled at interior nodes."""
    if not 0.0 <= c < 1.0:
        raise ValueError(f"initial amplitude must satisfy 0 <= c < 1, got {c}")
    x = grid.interior_points
    return c * (1.0 - x * x)


def _folded_inverse(matrix: np.ndarray) -> np.ndarray:
    """(S^-1 E)[:h] for an S that commutes with the reflection, E as above.

    S (n x n) maps even vectors to even vectors, so S E = E F with the h x h
    folded matrix F = (S E)[:h], and (S^-1 E)[:h] = F^-1.  F is inverted in
    place by Gauss-Jordan elimination without pivoting.  For A and for
    I + dt*A the folded rows keep nonpositive off-diagonals and positive
    sums, so F is strictly diagonally dominant by rows and needs no pivoting
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 9 and 14).
    Only elementwise numpy operations run, no BLAS or LAPACK call, so the
    bits depend on neither the BLAS kernel nor its thread count.  A pivot
    that is not positive, which an S not positive definite on even vectors
    gives, raises NumericalError.
    """
    n = matrix.shape[0]
    h = (n + 1) // 2
    inverse = matrix[:h, :h].copy()
    inverse[:, : n - h] += matrix[:h, ::-1][:, : n - h]
    for k in range(h):
        pivot = inverse[k, k]
        if not pivot > 0:
            raise NumericalError(f"matrix is not positive definite: pivot {k} is {pivot!r}")
        row = inverse[k] / pivot
        row[k] = 1.0 / pivot
        col = inverse[:, k].copy()
        col[k] = 0.0
        inverse[:, k] = 0.0
        inverse -= col[:, None] * row
        inverse[k] = row
    return inverse


def factorize(op: OperatorMatrix, dt: float) -> Factorization:
    """Form the folded inverse of I + dt*A (see `_folded_inverse`).

    The matrix is SPD by construction, so the elimination always succeeds;
    a non-positive pivot raises NumericalError.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return Factorization(_inverse=_folded_inverse(np.eye(op.n) + dt * op.entries))


def simulate_batch(
    factor: Factorization,
    params: ModelParams,
    seeds: Sequence[int],
    observer: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
    *,
    drive: np.ndarray,
    lams: Sequence[float] | None = None,
) -> list[RealizationResult]:
    """Advance a batch of realizations in lock step sharing one factorization.

    Each step sets u_next = (I + dt*A)^-1 (u + dt*g(u) + (1-u)^+ (kappa1 dB +
    kappa2 dB^H)) with g(u) = lambda / (1-u)^2 - gamma (1-u), through one
    `Factorization.solve` call over the running columns.  Each column
    evolves independently from its own seed-derived increments, and the
    solve multiplies fixed-width blocks, so results are identical whether
    realizations run alone or batched.  Quench detection runs before the
    source evaluation each step; quenched and failed columns stop at once.
    The stepped columns are kept packed, contiguous and in batch order.  A
    column that stops has its result recorded and is parked: its state is
    set to 0 and it goes on being stepped, zeroed again whenever it crosses
    the threshold, so it stays finite and never touches another column's
    bits.  The live columns are re-laid into a narrower pack only when that
    drops a BLOCK of the solve, ceil(live/BLOCK) < ceil(k/BLOCK), or when
    none is left.  At gamma = 0 the gamma (1-u) term is skipped: for finite
    u it is +0.0 and g - 0.0 is g, and a node at -inf makes the next state
    non-finite with or without it, so the column fails on the same step.

    `lams` steps one batch per lambda on the same drive, in place of
    `params.lam` (the default is `(params.lam,)`): column p*len(seeds) + j
    runs lambda `lams[p]` on seed j, and the results come in that order.
    Each column divides by its own lambda, so a column's result is the same
    as in a call with that lambda alone.

    Precondition: the initial data is even in x and the noise is spatially
    uniform, so every state is even.  The kernel steps, detects and packs
    only the first h = ceil((M-1)/2) nodes of each column, whose max is the
    max of the full state.

    `observer(n, u, active)`, when given, is called at the start of every
    step n = 0..N before quench detection, with the full state u (all M-1
    interior nodes by batch column, unfolded from the half state) and the
    mask of columns still running.  The running columns are written back
    into u before each call; a stopped column, parked or not, keeps the
    state it stopped in.  Both arrays are live: an observer that keeps them
    must copy.

    `drive` is the caller's (N, len(seeds)) `noise.batch_drive(params, seeds)`,
    so parameter sets that share a noise key step on one draw; it is only
    read.  A shorter or narrower drive raises ValueError before any step.
    """
    if lams is None:
        lams = (params.lam,)
    for lam in lams:
        replace(params, lam=lam)  # validates lam as ModelParams does
    n_seeds = len(seeds)
    n_batch = len(lams) * n_seeds
    dt, n_steps = params.dt, params.N
    gamma = params.gamma
    threshold = 1.0 - params.epsilon
    if drive.ndim != 2 or drive.shape[0] < n_steps or drive.shape[1] < n_seeds:
        raise ValueError(
            f"drive needs {n_steps} rows and {n_seeds} columns, got shape {drive.shape}"
        )
    # column c runs lams[c // n_seeds] on drive column c % n_seeds
    lam_of = np.repeat(np.asarray(lams, dtype=float), n_seeds)
    seed_of = np.tile(np.arange(n_seeds), len(lams))

    # The pack of the k stepped columns is the leading h*k entries of flat
    # buffers viewed as (h, k), so every per-step ufunc runs on contiguous
    # memory; order[:k] holds their batch columns, lam and cols their lambda
    # and drive column.  parked marks the stopped columns held at rest in
    # the pack; the views are rebuilt only when the live columns are re-laid.
    n_nodes = params.M - 1
    half = (n_nodes + 1) // 2
    buffers = [np.empty(half * n_batch) for _ in range(4)]

    def pack(k: int) -> list[np.ndarray]:
        return [buf[: half * k].reshape(half, k) for buf in buffers]

    k = n_batch
    x, w, g, b = pack(k)  # the state, 1 - u, the source and the right-hand side
    x[...] = initial_condition(params.grid, params.c)[:half, None]
    order = np.arange(n_batch)
    lam, cols = lam_of, seed_of
    parked = np.zeros(k, dtype=bool)
    n_parked = 0
    u = np.empty((n_nodes, n_batch)) if observer is not None else None
    active = np.ones(n_batch, dtype=bool)
    quench_time = np.full(n_batch, np.nan)
    failed = np.zeros(n_batch, dtype=bool)
    steps_taken = np.full(n_batch, n_steps)

    for n in range(n_steps + 1):
        if observer is not None:
            shown, state = order[:k], x
            if n_parked:
                shown, state = shown[~parked], x[:, ~parked]
            u[:half, shown] = state
            u[n_nodes - half :, shown] = state[::-1]
            observer(n, u, active)
        col_max = x.max(axis=0)
        running = np.isfinite(col_max) & (col_max <= threshold)
        if not running.all():
            stop = ~running
            new = stop & ~parked
            stopped = order[:k][new]
            bad = ~np.isfinite(col_max[new])
            failed[stopped[bad]] = True
            quench_time[stopped[~bad]] = max(n - 1, 0) * dt
            steps_taken[stopped] = n
            active[stopped] = False
            x[:, stop] = 0.0
            parked |= stop
            n_parked += len(stopped)
            live = k - n_parked
            if live == 0 or -(-live // BLOCK) < -(-k // BLOCK):
                keep = ~parked
                kept = x[:, keep]
                order[:live] = order[:k][keep]
                k = live
                x, w, g, b = pack(k)
                x[...] = kept
                lam, cols = lam_of[order[:k]], seed_of[order[:k]]
                parked = np.zeros(k, dtype=bool)
                n_parked = 0
        if n == n_steps or k == 0:
            break
        np.subtract(1.0, x, out=w)
        np.square(w, out=g)
        np.divide(lam, g, out=g)
        if gamma:  # at gamma = 0 the term changes no bit (see the docstring)
            np.multiply(gamma, w, out=b)
            np.subtract(g, b, out=g)
        np.multiply(dt, g, out=g)
        np.add(x, g, out=b)
        # (1-u)^+ is 1-u here: every entry of a stepped column, parked or
        # not, is at most 1 - epsilon (or -inf), so w > 0 already
        np.multiply(w, drive[n, cols], out=w)
        np.add(b, w, out=b)
        factor.solve(b, out=x)

    results = []
    for c in range(n_batch):
        quenched = not np.isnan(quench_time[c])
        results.append(
            RealizationResult(
                quenched=quenched,
                T_q=float(quench_time[c]) if quenched else None,
                steps_taken=int(steps_taken[c]),
                failed=bool(failed[c]),
            )
        )
    return results

