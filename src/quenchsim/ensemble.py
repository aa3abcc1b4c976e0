"""Ensemble estimation of quenching statistics and the parameter sweeps.

Realization i always draws its noise from the stream derived from
(master_seed, i), so ensembles are reproducible and independent of chunking;
estimates over disjoint index ranges pool exactly.  A sweep steps all its
grid points chunk by chunk, drawing each chunk's noise once per noise key
and stepping the points that differ only in lambda in one call.
When any point is on a fine grid (a half state of SPLIT_HALF_NODES nodes
or more), every chunk of the call is stepped in contiguous ranges, one
worker thread per CPU of the affinity mask, each on a one-thread BLAS;
when none is, or with one CPU, stepping runs on the calling thread and the
solve's BLAS uses the cores.  Either way every result is the same.
`run_realization` steps one seed on the drive an ensemble gives it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericalError
from .operator import assemble_matrix
from .seeding import derive_seed
from .noise import _noise_key, batch_drive
from .solver import MODEL_KEYS, ModelParams, RealizationResult, factorize, simulate_batch
from .workers import _map_ranges, _openblas, _ranges

CHUNK_SIZE = 256

# Half-state size h = ceil((M-1)/2) = M // 2 from which a point puts every
# chunk of its call on one worker thread per CPU.  Below it the GIL-bound
# ufunc loop outweighs the solve, and one thread with a threaded BLAS is
# faster (the crossover measurements are in docs/decision-log.md).
SPLIT_HALF_NODES = 112


@dataclass(frozen=True)
class EnsembleStats:
    """Aggregated quenching statistics of one ensemble."""

    n_realizations: int
    n_quenched: int
    failures: int
    quench_probability: float
    mean_Tq: float | None
    var_Tq: float | None
    std_error_p: float

    @staticmethod
    def from_results(results) -> "EnsembleStats":
        n = len(results)
        failures = sum(r.failed for r in results)
        if failures == n:
            raise NumericalError("all realizations failed; ensemble is empty")
        times = [r.T_q for r in results if r.quenched and not r.failed]
        n_quenched = len(times)
        n_valid = n - failures
        p = n_quenched / n_valid
        mean = float(np.mean(times)) if n_quenched > 0 else None
        var = float(np.var(times, ddof=1)) if n_quenched > 1 else None
        return EnsembleStats(
            n_realizations=n,
            n_quenched=n_quenched,
            failures=failures,
            quench_probability=p,
            mean_Tq=mean,
            var_Tq=var,
            std_error_p=float(np.sqrt(p * (1.0 - p) / n_valid)),
        )


@dataclass(frozen=True)
class SweepResult:
    """Ensemble statistics over a parameter grid, row-major over the axes."""

    axis_names: tuple[str, ...]
    axis_values: tuple[tuple[float, ...], ...]
    stats: tuple[EnsembleStats, ...]

    def __post_init__(self) -> None:
        expected = math.prod(len(v) for v in self.axis_values)
        if expected != len(self.stats):
            raise ValueError(
                f"grid size {expected} inconsistent with {len(self.stats)} stats entries"
            )

    def grid_points(self):
        """Yield (coordinate tuple, stats) pairs in storage order."""
        yield from zip(itertools.product(*self.axis_values), self.stats)


def estimate(
    params: ModelParams,
    n_realizations: int,
    master_seed: int,
    index_offset: int = 0,
) -> EnsembleStats:
    """Run an ensemble on seeds derived from (master_seed, index).

    `index_offset` shifts the realization indices, letting disjoint ranges
    of one logical ensemble be computed separately and pooled.
    """
    return _run_chunks([params], n_realizations, master_seed, index_offset)[0]


def run_realization(params: ModelParams, seed: int) -> RealizationResult:
    """Run a single realization to quenching or the horizon.

    The result carries the sup-norm series max_j |u_j| of every state up to
    and including the one that quenched.  The noise is `batch_drive(params,
    [seed])`, the drive an ensemble steps seed `seed` on.  Deterministic:
    identical (params, seed) reproduce the result bitwise.
    """
    factor = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
    series: list[float] = []

    def record(n: int, u: np.ndarray, active: np.ndarray) -> None:
        if active[0]:
            series.append(float(np.max(np.abs(u[:, 0]))))

    drive = batch_drive(params, [seed])
    result = simulate_batch(factor, params, [seed], observer=record, drive=drive)[0]
    return replace(result, sup_norm_series=np.asarray(series))


def _run_chunks(grid, n_realizations: int, master_seed: int, index_offset: int = 0):
    """Statistics of each point of `grid`, a list of ModelParams, over one set of realizations.

    The factorization is built once per distinct (M, alpha, dt), on the
    calling thread.  Chunks of CHUNK_SIZE seeds are the outer loop and
    points the inner one.  Each chunk's drive is drawn once per noise key,
    into one (N, CHUNK_SIZE) buffer that is refilled in place, and every
    point with that key steps on it; points that differ only in lambda
    step together in one `simulate_batch` call.  A point's results are
    those of its own ensemble, in index order.

    Whether chunks split is decided once per call.  When a point's half
    state has at least SPLIT_HALF_NODES nodes and an OpenBLAS is loaded,
    every chunk is cut into contiguous ranges, one per CPU of the affinity
    mask (`workers._ranges`); otherwise each chunk is one range.
    `workers._map_ranges` runs the ranges: one inline, two or more on one
    worker thread each, on a one-thread OpenBLAS, while the calling thread
    only waits.  A range draws its own columns of the buffer and steps
    every pack of the key on them.  A column's drive and its solve do not
    depend on the columns beside it (see `solver.BLOCK`), so the results do
    not depend on the split.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    factors = {}
    # noise key -> params with lambda cleared -> point indices
    groups: dict[tuple, dict[ModelParams, list[int]]] = {}
    for i, params in enumerate(grid):
        key = (params.M, params.alpha, params.dt)
        if key not in factors:
            factors[key] = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
        packs = groups.setdefault(_noise_key(params), {})
        packs.setdefault(replace(params, lam=0.0), []).append(i)
    wide = any(params.M // 2 >= SPLIT_HALF_NODES for params in grid)
    libraries = _openblas() if wide else []
    results = [[] for _ in grid]
    buffer = None
    for start in range(0, n_realizations, CHUNK_SIZE):
        chunk = range(start, min(start + CHUNK_SIZE, n_realizations))
        seeds = [derive_seed(master_seed, index_offset + i) for i in chunk]
        ranges = _ranges(len(seeds)) if libraries else [range(len(seeds))]
        for packs in groups.values():
            shared = next(iter(packs))
            if buffer is None or buffer.shape[0] != shared.N:
                buffer = None  # release the old buffer before allocating the new one
                buffer = np.empty((shared.N, min(CHUNK_SIZE, n_realizations)))

            def step(r: range) -> dict[int, list]:
                cols = slice(r.start, r.stop)
                return _range_results(grid, factors, packs, seeds[cols], buffer[:, cols])

            for part in _map_ranges(step, ranges, libraries):
                for i, stepped in part.items():
                    results[i].extend(stepped)
    return [EnsembleStats.from_results(r) for r in results]


def _range_results(grid, factors, packs, seeds, buffer) -> dict[int, list]:
    """The per-realization results of one contiguous range of seeds, for each point of `packs`.

    `packs` maps parameters with lambda cleared to the indices in `grid` of
    the points that step together on them; all share one noise key.  The
    range's drive is drawn into the leading len(seeds) columns of `buffer`.
    Returns each point's results in index order, keyed by the point's index.
    """
    drive = batch_drive(next(iter(packs)), seeds, out=buffer)
    stepped = {}
    for params, members in packs.items():
        factor = factors[(params.M, params.alpha, params.dt)]
        lams = [grid[i].lam for i in members]
        batch = simulate_batch(factor, params, seeds, drive=drive, lams=lams)
        for p, i in enumerate(members):
            stepped[i] = batch[p * len(seeds) : (p + 1) * len(seeds)]
    return stepped


def _grid_points(base: ModelParams, axes) -> tuple[tuple, list[ModelParams]]:
    """The axis values, typed by `MODEL_KEYS`, and the parameters of every grid point.

    An unknown or repeated key, a value of the wrong type (a non-integral N
    or M) or a point that `ModelParams` rejects raises ConfigError.
    """
    names, values = [], []
    for key, vals in axes:
        if key not in MODEL_KEYS or MODEL_KEYS[key][0] in names:
            valid = ", ".join(MODEL_KEYS)
            raise ConfigError(f"unknown or repeated sweep axis '{key}'; valid keys: {valid}")
        name, kind = MODEL_KEYS[key]
        try:
            typed = tuple(kind(v) for v in vals)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"sweep axis '{key}': {exc}") from exc
        if kind is int and typed != tuple(vals):
            raise ConfigError(f"sweep axis '{key}' takes integers, got {list(vals)!r}")
        names.append(name)
        values.append(typed)
    try:
        grid = [replace(base, **dict(zip(names, point))) for point in itertools.product(*values)]
    except ValueError as exc:
        raise ConfigError(f"sweep point rejected: {exc}") from exc
    return tuple(values), grid


def sweep(
    base: ModelParams,
    axes,
    n_realizations: int,
    master_seed: int,
) -> SweepResult:
    """One ensemble per point of the grid spanned by `axes`, row-major.

    `axes` is an ordered list of (config key, values) pairs, for example
    [("alpha", alphas), ("H", hurst_indices)]; the last axis varies fastest.
    Every other parameter comes from `base`.  The points run together in
    `_run_chunks`, and every point's ensemble equals its own `estimate`.
    """
    values, grid = _grid_points(base, axes)
    stats = _run_chunks(grid, n_realizations, master_seed)
    return SweepResult(tuple(key for key, _ in axes), values, tuple(stats))
