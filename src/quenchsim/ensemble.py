"""Ensemble estimation of quenching statistics and the parameter sweeps.

Realization i always draws its noise from the stream derived from
(master_seed, i), so ensembles are reproducible and independent of chunking;
estimates over disjoint index ranges pool exactly.  Stepping runs on the
calling thread; the solve's BLAS is what uses the cores.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalError
from .operator import assemble_matrix
from .seeding import derive_seed
from .solver import Factorization, ModelParams, OperatorMatrix, factorize, simulate_batch

CHUNK_SIZE = 256


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
    embedding_warnings: int = 0

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
            embedding_warnings=sum(r.embedding_warning for r in results),
        )


@dataclass(frozen=True)
class SweepResult:
    """Ensemble statistics over a parameter grid, row-major over the axes."""

    axis_names: tuple[str, ...]
    axis_values: tuple[tuple[float, ...], ...]
    stats: tuple[EnsembleStats, ...]
    master_seed: int

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
    threads: int = 1,
    index_offset: int = 0,
    op: OperatorMatrix | None = None,
    factor: Factorization | None = None,
) -> EnsembleStats:
    """Run an ensemble on seeds derived from (master_seed, index).

    Realizations are stepped on the calling thread in fixed chunks of
    CHUNK_SIZE, which bounds the noise drive held at once to (N, CHUNK_SIZE).
    `index_offset` shifts the realization indices, letting disjoint ranges
    of one logical ensemble be computed separately and pooled.  `threads` is
    unused: it is kept so existing callers, and the benchmark tracer in
    perfbench/spans.py that reads it by name, keep working.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    if op is None:
        op = assemble_matrix(params.grid, params.alpha)
    if factor is None:
        factor = factorize(op, params.dt)
    results = []
    for start in range(0, n_realizations, CHUNK_SIZE):
        chunk = range(start, min(start + CHUNK_SIZE, n_realizations))
        seeds = [derive_seed(master_seed, index_offset + i) for i in chunk]
        results.extend(simulate_batch(op, factor, params, seeds))
    return EnsembleStats.from_results(results)


# Sweep axes are named by config key; only lambda differs from its ModelParams field.
_PARAM_FIELD = {"lambda": "lam"}


def sweep(
    base: ModelParams,
    axes,
    n_realizations: int,
    master_seed: int,
) -> SweepResult:
    """One ensemble per point of the grid spanned by `axes`, row-major.

    `axes` is an ordered list of (config key, values) pairs, for example
    [("alpha", alphas), ("H", hurst_indices)]; the last axis varies fastest.
    Every other parameter comes from `base`.  The operator and its
    factorization are built once per distinct (alpha, dt) and shared by the
    ensembles that use them.
    """
    names = tuple(key for key, _ in axes)
    values = tuple(tuple(float(v) for v in vals) for _, vals in axes)
    factored = {}
    stats = []
    for point in itertools.product(*values):
        params = replace(base, **{_PARAM_FIELD.get(k, k): v for k, v in zip(names, point)})
        key = (params.alpha, params.dt)
        if key not in factored:
            op = assemble_matrix(params.grid, params.alpha)
            factored[key] = (op, factorize(op, params.dt))
        op, factor = factored[key]
        stats.append(estimate(params, n_realizations, master_seed, op=op, factor=factor))
    return SweepResult(
        axis_names=names,
        axis_values=values,
        stats=tuple(stats),
        master_seed=master_seed,
    )
