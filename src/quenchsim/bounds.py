"""Analytic quenching-time and quenching-probability bounds.

The coefficients a, b and k are constants, so the clocks K(t) = k^2 t / 2
and A(t) = a^2 t / 2 are closed forms.  Every bound is evaluated two ways
where possible: as a closed-form or quadrature expression in the model
constants, and by Monte Carlo over sampled noise paths, so the estimates
can be checked against the theory.  The Monte Carlo loop
(`bound_monte_carlo`) evaluates only the first-crossing times of tau* and
tau_*: it forms the path-independent exponents once per call and
accumulates each path's exponential functional through a running
log-sum-exp, which stays finite even when the raw integrand overflows.  A
path's Brownian increments are drawn and summed segment by segment, only
until both sums have crossed.  The paths are drawn on one worker thread per
CPU, the fGN of a block of them by one transform.
`bound_report` runs the whole pipeline from a run configuration; the
`bounds` command and the `validate` check both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

from .config import RunConfig
from .errors import NumericalError
from .noise import PATH_BLOCK, PathWorkspace, _drive, _embedding_clipped, _paths
from .operator import assemble_matrix
from .seeding import derive_seed
from .solver import ModelParams
from .spectral import inner_product_v0_psi1, principal_eigenpair
from .workers import _ranges

# `quad` is imported inside the functions that integrate (here and in
# validation.py): scipy.integrate loads scipy.optimize and scipy.sparse, and
# `import quenchsim` runs at the start of every CLI command, sweeps included.

INFINITE_TIME = math.inf


@dataclass(frozen=True)
class BoundParams:
    """The model and what its eigen-solve adds for eigenfunction initial data.

    For v0 = W1 psi1: mu1 is the principal eigenvalue, v0_psi1 = <v0, psi1>
    and mu0 = mu(0) = W1 min psi1.  Every other constant of the bounds
    (lambda, gamma, H, the coefficients a, b, k and the horizon T) is read
    from `params`.  The source is the simulated one, so the growth envelope
    of the nonlinearity is the unit envelope and its constants drop out.
    """

    params: ModelParams
    mu1: float
    v0_psi1: float
    mu0: float

    def __post_init__(self) -> None:
        if self.mu1 <= 0:
            raise ValueError(f"principal eigenvalue must be positive, got {self.mu1}")
        if self.mu0 <= 0:
            raise ValueError(f"mu(0) must be positive, got {self.mu0}")

    def tau_star_threshold(self) -> float:
        """w = <v0, psi1>^3 / (3 lambda); infinite when undefined."""
        denom = 3.0 * self.params.lam
        if denom <= 0.0:
            return INFINITE_TIME
        return self.v0_psi1**3 / denom

    def tau_lower_threshold(self) -> float:
        """1 / (4 lambda); infinite when undefined."""
        denom = 4.0 * self.params.lam
        if denom <= 0.0:
            return INFINITE_TIME
        return 1.0 / denom


def _half_square(t, c: float):
    """(1/2) Int_0^t c^2 ds = c^2 t / 2 for a constant c, at a time or on a grid."""
    return 0.5 * c**2 * t


def _drift(tk, bp: BoundParams):
    """gamma t - mu1 K(t) - A(t) at a time or on a grid; the exponents carry -3 times this."""
    p = bp.params
    return p.gamma * tk - bp.mu1 * _half_square(tk, p.k_fn) - _half_square(tk, p.a_fn)


def _exp(x: float) -> float:
    """math.exp for the bound integrands; overflow is a NumericalError."""
    try:
        return math.exp(x)
    except OverflowError as exc:
        raise NumericalError(f"bound integrand exp({x:.6g}) overflows a float") from exc


def M_of(bp: BoundParams) -> float:
    """Malliavin-derivative envelope M(T) = 18 Int a^2 + 36 H T^(2H-1) Int b^2."""
    p = bp.params
    T = p.T
    return 18.0 * (p.a_fn**2 * T) + 36.0 * p.H * T ** (2.0 * p.H - 1.0) * (p.b_fn**2 * T)


def nu_of(bp: BoundParams) -> float:
    """Mean accumulated exponential functional nu(T) = Int_0^T E[e^(X_t)] dt.

    X_t = -3 (gamma t - mu1 K(t) - A(t)) + 3 N_t, so the integrand is
    the deterministic envelope times E[e^(3 N_t)] = exp(4.5 Var N_t), with
    Var N_t = a^2 t + b^2 t^(2H) for the independent drivers.
    """
    from scipy.integrate import quad

    p = bp.params

    def integrand(t: float) -> float:
        var = p.a_fn**2 * t + p.b_fn**2 * t ** (2.0 * p.H)
        return _exp(-3.0 * _drift(t, bp) + 4.5 * var)

    return quad(integrand, 0.0, p.T, limit=200)[0]


def tail_upper_bound(w: float, bp: BoundParams, nu_T: float) -> float:
    """Gaussian-tail upper bound on P[tau* <= T], valid when w > nu_T = `nu_of(bp)`.

    Returns min(1, 2 exp(-(ln w - ln nu)^2 / (2 M(T)))), and its limit 0
    when nu(T) = 0 (it underflows at large gamma) or M(T) = 0: without noise
    tau* is deterministic and its functional nu(T) stays below w.
    """
    if not w > nu_T:
        raise ValueError(
            f"tail bound requires w > nu(T); got w={w:.6g}, nu(T)={nu_T:.6g}"
        )
    mT = M_of(bp)
    if nu_T == 0.0 or mT == 0.0:
        return 0.0
    return min(1.0, 2.0 * math.exp(-((math.log(w) - math.log(nu_T)) ** 2) / (2.0 * mT)))


def chebyshev_bounds(bp: BoundParams, independent: bool) -> float:
    """First-moment (Chebyshev) upper bound on P[tau* <= T].

    independent=True evaluates the bound for independent drivers; False the
    Volterra-representation variant.  Both are clamped to [0, 1].
    """
    from scipy.integrate import quad

    w = bp.tau_star_threshold()
    if not math.isfinite(w):
        return 0.0
    p = bp.params
    H = p.H

    if independent:
        def integrand(t: float) -> float:
            e = 3.0 * (
                bp.mu1 * _half_square(t, p.k_fn)
                - p.gamma * t
                + 4.0 * _half_square(t, p.a_fn)
                + 3.0 * H * t ** (2.0 * H - 1.0) * (p.b_fn**2 * t)
            )
            return _exp(e)

        value = quad(integrand, 0.0, p.T, limit=200)[0] / w
    else:
        def first(t: float) -> float:
            k_term = bp.mu1 * _half_square(t, p.k_fn)
            return _exp(6.0 * (k_term + _half_square(t, p.a_fn) - p.gamma * t))

        def second(t: float) -> float:
            return _exp(
                6.0 * _half_square(t, p.a_fn) + 36.0 * H * t ** (2.0 * H - 1.0) * (p.b_fn**2 * t)
            )

        value = (
            quad(first, 0.0, p.T, limit=200)[0] + quad(second, 0.0, p.T, limit=200)[0]
        ) / w
    return min(1.0, value)


@dataclass(frozen=True)
class GammaBoundResult:
    value: float
    almost_sure: bool


def gamma_lower_bound(bp: BoundParams, Lambda_cap: float) -> GammaBoundResult:
    """Lower bound on the quenching probability from the perpetual functional.

    With nu = (1 + mu1 - gamma) / 3 < 0 the reciprocal of the perpetual
    exponential functional is Gamma(-nu) distributed, giving the regularized
    lower incomplete gamma P(-nu, 2 Lambda / (9 w)) as a lower bound on
    P[quench in finite time].  nu >= 0 is the almost-sure case: the bound is
    returned as 1 with the flag set.
    """
    nu = (1.0 + bp.mu1 - bp.params.gamma) / 3.0
    if nu >= 0.0:
        return GammaBoundResult(value=1.0, almost_sure=True)
    w = bp.tau_star_threshold()
    if not math.isfinite(w) or w <= 0.0:
        raise ValueError("gamma bound needs a finite positive threshold w")
    lam_tilde = 2.0 * Lambda_cap / (9.0 * w)
    if lam_tilde < 0.0:
        raise ValueError(f"scaled cap must be non-negative, got {lam_tilde}")
    if lam_tilde == 0.0:
        return GammaBoundResult(value=0.0, almost_sure=False)
    return GammaBoundResult(value=float(gammainc(-nu, lam_tilde)), almost_sure=False)


CROSSING_PREFIX = 256


def _segments(n_terms: int):
    """(start, stop) of the scan's segments: CROSSING_PREFIX terms, doubling each round."""
    start, size = 0, CROSSING_PREFIX
    while start < n_terms:
        stop = min(start + size, n_terms)
        yield start, stop
        start, size = stop, 2 * size


class _Crossing:
    """The running log-sum-exp of a sum's log terms, fed one `_segments` segment at a time.

    np.logaddexp.accumulate runs on each segment and restarts from the
    previous segment's last value, so it follows the recurrence of one
    accumulate over all the terms and finds the same first index at which
    the sum reaches `threshold`.  A non-finite threshold is never reached.
    `time` is dt times the number of terms up to that index, or infinite.
    """

    def __init__(self, threshold: float, dt: float) -> None:
        self.open = math.isfinite(threshold)
        self.log_threshold = math.log(threshold) if self.open else math.nan
        self.dt = dt
        self.carry = np.empty(0)
        self.time = INFINITE_TIME

    def feed(self, start: int, log_terms: np.ndarray) -> None:
        running = np.logaddexp.accumulate(np.concatenate([self.carry, log_terms]))
        hits = np.flatnonzero(running >= self.log_threshold)
        if hits.size:
            self.time = self.dt * (start - self.carry.size + int(hits[0]) + 1)
            self.open = False
        else:
            self.carry = running[-1:]


@dataclass(frozen=True)
class _Scan:
    """What every path's scan reads: dt, a, log dt, and each sum's exponent base and threshold."""

    dt: float
    a: float
    log_dt: float
    sums: tuple  # ((base, threshold) of tau*, (base, threshold) of tau_*)


def _path_crossings(seed: int, rng, fgn: np.ndarray, scan: _Scan, buffers) -> tuple[float, float]:
    """tau* and tau_* of the path `seed`, whose Brownian stream is `rng` and fGN term is `fgn`.

    The path is formed one `_segments` segment at a time: stream 1 is drawn
    for the segment's steps (`_drive`), the drive a dB + fgn is added to the
    running sum N from its last value, and the log terms of both sums are
    fed to their `_Crossing`.  The scan stops when both sums have crossed,
    so stream 1 is drawn only as far as the later crossing's segment, or to
    the horizon.  np.cumsum adds in order, so N has the bits of one cumsum
    over the whole drive.
    """
    workspace, three_n, log_terms = buffers
    N = workspace.N
    N[0] = 0.0
    crossings = [_Crossing(threshold, scan.dt) for _, threshold in scan.sums]
    for start, stop in _segments(three_n.size):
        if not any(crossing.open for crossing in crossings):
            break
        drive = _drive(rng, scan.dt, scan.a, fgn, start, stop, workspace.db)
        if start:
            drive[0] += N[start]
        np.cumsum(drive, out=N[start + 1 : stop + 1])
        np.multiply(N[start:stop], 3.0, out=three_n[start:stop])
        for crossing, (base, _) in zip(crossings, scan.sums):
            if crossing.open:
                # the log of the left-endpoint term, base + 3 N + log dt
                terms = np.add(base[start:stop], three_n[start:stop], out=log_terms[start:stop])
                terms += scan.log_dt
                crossing.feed(start, terms)
    star, low = (crossing.time for crossing in crossings)
    return star, low


def eigen_mu(bp: BoundParams, t):
    """Closed-form mu(t) = mu(0) e^(gamma t - mu1 K(t) - A(t)) for v0 = W1 psi1, on t or a grid."""
    return bp.mu0 * np.exp(_drift(np.asarray(t, dtype=float), bp))


def bound_monte_carlo(bp: BoundParams, n_paths: int, master_seed: int) -> tuple[float, bool]:
    """Empirical P[tau* <= T] over sampled paths and the per-path ordering.

    Path i is N_t = a B_t + b B^H_t at t_0..t_N: the running sum from N_0 = 0
    of a dB + b dB^H, with dB and dB^H drawn from streams 1 and 2 of
    `derive_seed(master_seed, i)`, the seeding policy of the ensembles, so
    distinct master seeds draw disjoint paths.
    tau_* uses mu(t) of the eigenfunction initial data v0 = W1 psi1
    (`eigen_mu`).  The flag is True when tau_* <= tau* held on every path.
    Only the first-crossing times are evaluated: the drift and mu(t)
    exponents are formed once per call, the fGN of `PATH_BLOCK` paths is
    drawn by one transform, and each path is summed only as far as its
    scan (`_path_crossings`) reads.

    The paths are split into contiguous ranges, one per worker thread
    (`workers._ranges`); numpy's normal fill and FFT release the GIL.  Each
    path's draw depends only on its index, and the per-range counts are
    combined exactly, so the result does not depend on the worker count.
    Each worker's buffers are allocated here, on the calling thread, before
    the pool starts; the calling thread then only waits, and a worker's
    exception leaves this function.
    """
    from concurrent.futures import ThreadPoolExecutor

    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    params = bp.params
    tk = params.dt * np.arange(params.N)
    star_base = -3.0 * _drift(tk, bp)
    mu_vals = eigen_mu(bp, tk)
    if np.any(mu_vals <= 0):
        # exp underflow: a large k or a drives mu(t) to zero within the horizon
        raise ValueError("mu(t) must be positive on the path horizon")
    lower_base = -3.0 * np.log(mu_vals)
    scan = _Scan(
        params.dt,
        params.a_fn,
        math.log(params.dt),
        ((star_base, bp.tau_star_threshold()), (lower_base, bp.tau_lower_threshold())),
    )

    def draw(paths: range, buffers) -> tuple[int, bool]:
        crossings, ordered = 0, True
        seeds = [derive_seed(master_seed, i) for i in paths]
        for seed, (rng, fgn) in zip(seeds, _paths(seeds, params.b_fn, buffers[0])):
            star, low = _path_crossings(seed, rng, fgn, scan, buffers)
            crossings += star <= params.T
            ordered = ordered and low <= star
        return crossings, ordered

    ranges = _ranges(n_paths)
    buffers = [
        (
            PathWorkspace(params.N, params.dt, params.H, PATH_BLOCK),
            np.empty(params.N),
            np.empty(params.N),
        )
        for _ in ranges
    ]
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [pool.submit(draw, paths, buf) for paths, buf in zip(ranges, buffers)]
        crossings, ordered = zip(*(future.result() for future in futures))
    return sum(crossings) / n_paths, all(ordered)


def bound_report(config: RunConfig) -> dict:
    """Every bound for eigenfunction initial data v0 = W1 psi1, with its Monte Carlo check.

    Assembles the operator, solves the principal eigenpair and evaluates the
    thresholds, nu(T), M(T), the tail and Chebyshev upper bounds, the gamma
    lower bound (when lambda > 0) and `bound_monte_carlo`.  When dt >= w the
    Monte Carlo is skipped and reported as 0 paths with null results.  The
    keys and their order are the `bounds_report.json` format.
    """
    params = config.params
    pair = principal_eigenpair(assemble_matrix(params.grid, params.alpha))
    bp = BoundParams(
        params,
        mu1=pair.mu1,
        v0_psi1=inner_product_v0_psi1(config.W1 * pair.psi1, pair),
        mu0=config.W1 * float(np.min(pair.psi1)),
    )
    w = bp.tau_star_threshold()
    nu_T = nu_of(bp)
    report: dict = {
        "inputs": {
            "mu1": bp.mu1,
            "v0_psi1": bp.v0_psi1,
            "lambda": params.lam,
            "gamma": params.gamma,
            "H": params.H,
            "W1": config.W1,
            "T": params.T,
        },
        "threshold_w": w if math.isfinite(w) else None,
        "nu_T": nu_T,
        "M_T": M_of(bp),
        "tail_bound": tail_upper_bound(w, bp, nu_T) if w > nu_T else None,
        "tail_bound_valid": bool(w > nu_T),
        "chebyshev_independent": chebyshev_bounds(bp, independent=True),
        "chebyshev_volterra": chebyshev_bounds(bp, independent=False),
    }
    if params.lam > 0:
        gamma_result = gamma_lower_bound(bp, config.lambda_cap)
        report["gamma_lower_bound"] = {
            "value": gamma_result.value,
            "almost_sure": gamma_result.almost_sure,
        }
    if params.dt >= w:
        # the first left-endpoint term of tau*'s sum is dt itself, so every
        # path would cross at the first step: the estimate says nothing
        paths, empirical, ordered = 0, None, None
    else:
        paths = config.bound_paths
        empirical, ordered = bound_monte_carlo(bp, paths, config.master_seed)
    # every path shares the grid's embedding, so all are clipped or none is
    clipped = _embedding_clipped(params.N, params.dt, params.H)
    report["monte_carlo"] = {
        "paths": paths,
        "empirical_P_tau_star_le_T": empirical,
        "per_path_ordering_ok": ordered,
        "embedding_warnings": paths if clipped else 0,
    }
    return report
