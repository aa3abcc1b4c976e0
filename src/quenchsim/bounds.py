"""Analytic quenching-time and quenching-probability bounds.

The coefficients a, b and k are constants, so the clocks K(t) = k^2 t / 2
and A(t) = a^2 t / 2 are closed forms, and the drift exponent
gamma t - mu1 K(t) - A(t) has one copy, `_drift`.  Every bound is evaluated
two ways where possible: as a closed-form or quadrature expression in the
model constants, and by Monte Carlo over sampled noise paths, so the
estimates can be checked against the theory.  nu(T) and both Chebyshev
bounds are integrals of one form, `_moment`.  The Monte Carlo loop
(`bound_monte_carlo`) evaluates only the first-crossing times of tau* and
tau_*: it forms both sums' log-domain bases from `_drift` once per call and
accumulates each path's exponential functional through a running
log-sum-exp, which stays finite even when the raw integrand overflows.  A
path's Brownian increments are drawn and summed segment by segment, only
until both sums have crossed.  The paths are drawn in one contiguous range
per CPU, the fGN of a block of them by one transform; one range runs on the
calling thread, two or more on one worker thread each (`workers._map_ranges`),
and each owns a `_Scan` of constants and buffers built on the calling thread.
`bound_report` runs the whole pipeline from a run configuration; the
`bounds` command and the `validate` check both call it.  The integrals run
through `_quad`, an adaptive 21-point Gauss-Kronrod rule, and the gamma
bound through `_gammainc`, both in plain Python floats, so the bounds need
numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .config import RunConfig
from .errors import NumericalError
from .noise import PATH_BLOCK, PathWorkspace, _drive, _embedding_clipped, _paths
from .operator import assemble_matrix
from .seeding import derive_seed
from .solver import ModelParams
from .spectral import inner_product_v0_psi1, principal_eigenpair
from .workers import _map_ranges, _ranges

# QUADPACK's dqk21 (Piessens et al., QUADPACK, 1983) on [-1, 1]: the nodes
# in the order it evaluates them (the centre, then +- pairs, the 10-point
# Gauss nodes first), the 21-point Kronrod weight of the centre and of each
# pair, and the Gauss weight of each Gauss pair.
_ABSCISSAE = (
    0.973906528517171720077964012084452, 0.865063366688984510732096688423493,
    0.679409568299024406234327365114874, 0.433395394129247190799265943165784,
    0.148874338981631210884826001129720, 0.995657163025808080735527280689003,
    0.930157491355708226001207180059508, 0.780817726586416897063717578345042,
    0.562757134668604683339000099272694, 0.294392862701460198131126603103866,
)
_KRONROD = (
    0.032558162307964727478818972459390, 0.075039674810919952767043140916190,
    0.109387158802297641899210590325805, 0.134709217311473325928054001771707,
    0.147739104901338491374841515972068, 0.011694638867371874278064396062192,
    0.054755896574351996031381300244580, 0.093125454583697605535065465083366,
    0.123491976262065851077208931883988, 0.142775938577060080797094273138717,
)
_GAUSS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338, 0.0, 0.0, 0.0, 0.0, 0.0,
)
_CENTRE_WEIGHT = 0.149445554002916905664936468389821
_NODES = (0.0, *(sign * x for x in _ABSCISSAE for sign in (-1.0, 1.0)))
_WEIGHTS = (_CENTRE_WEIGHT, *(w for w in _KRONROD for _ in range(2)))
_EPS = 2.220446049250313e-16
QUAD_TOL = 1.49e-8  # scipy.integrate.quad's default absolute and relative tolerances
QUAD_LIMIT = 400  # subintervals


def _gk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """(-error, a, b, integral) of f on [a, b]: dqk21's sums, in its order, and error estimate."""
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    values = [f(centre + half * x) for x in _NODES]
    kronrod, gauss = _CENTRE_WEIGHT * values[0], 0.0
    for wk, wg, low, high in zip(_KRONROD, _GAUSS, values[1::2], values[2::2]):
        kronrod += wk * (low + high)
        gauss += wg * (low + high)
    mean = 0.5 * kronrod
    spread = abs(half) * sum(map(mul, _WEIGHTS, [abs(v - mean) for v in values]))
    size = abs(half) * sum(map(mul, _WEIGHTS, map(abs, values)))
    error = abs((kronrod - gauss) * half)
    if spread and error:
        error = spread * min(1.0, (200.0 * error / spread) ** 1.5)
    if size > 2.2250738585072014e-308 / (50.0 * _EPS):
        error = max(50.0 * _EPS * size, error)
    return -error, a, b, kronrod * half


def _quad(f, a: float, b: float, points=()) -> float:
    """Int_a^b f by globally adaptive 21-point Gauss-Kronrod quadrature.

    [a, b] is first cut at the `points` inside it; then the subinterval with
    the largest error estimate is bisected until the estimates sum to at
    most QUAD_TOL, absolute or relative, QUADPACK's default tolerances.  f
    gets Python floats, so its overflow raises.  More than QUAD_LIMIT
    subintervals is a NumericalError.
    """
    edges = [a, *sorted({p for p in points if a < p < b}), b]
    pieces = [_gk21(f, lo, hi) for lo, hi in zip(edges, edges[1:])]
    error = -math.fsum(piece[0] for piece in pieces)
    total = math.fsum(piece[3] for piece in pieces)
    while error > QUAD_TOL * max(1.0, abs(total)):
        if len(pieces) >= QUAD_LIMIT:
            raise NumericalError(
                f"quadrature on [{a:.6g}, {b:.6g}] did not converge in {QUAD_LIMIT} subintervals"
            )
        worst = min(pieces)  # the largest error: the estimates are stored negated
        pieces.remove(worst)
        mid = 0.5 * (worst[1] + worst[2])
        left, right = _gk21(f, worst[1], mid), _gk21(f, mid, worst[2])
        pieces += left, right
        error += worst[0] - left[0] - right[0]
        total += left[3] + right[3] - worst[3]
    return math.fsum(piece[3] for piece in pieces)


def _gammainc(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) for s > 0 and x >= 0.

    For x < s + 1 the series x^s e^-x / Gamma(s + 1) sum_n x^n / ((s + 1)..(s + n)),
    otherwise 1 - Q(s, x) with Q's continued fraction by the modified Lentz
    method (Press et al., Numerical Recipes, 6.2).
    """
    if x == 0.0 or x == math.inf:
        return float(x > 0.0)
    try:
        front = x**s * math.exp(-x - math.lgamma(s))  # pow rounds s ln x only once
    except OverflowError:
        front = math.exp(s * math.log(x) - x - math.lgamma(s))
    if x < s + 1.0:
        term = total = 1.0
        for n in range(1, 10_000):
            term *= x / (s + n)
            total += term
            if term <= _EPS * total:
                return total * front / s
    else:
        b = x + 1.0 - s
        c, d = 1.0 / 1e-300, 1.0 / b
        h = d
        for n in range(1, 10_000):
            an, b = n * (s - n), b + 2.0
            d = 1.0 / (an * d + b or 1e-300)
            c = an / c + b or 1e-300
            h *= d * c
            if abs(d * c - 1.0) <= _EPS:
                return 1.0 - front * h
    raise NumericalError(f"incomplete gamma P({s:.6g}, {x:.6g}) did not converge")


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
            return math.inf
        return self.v0_psi1**3 / denom

    def tau_lower_threshold(self) -> float:
        """1 / (4 lambda); infinite when undefined."""
        denom = 4.0 * self.params.lam
        if denom <= 0.0:
            return math.inf
        return 1.0 / denom


def _drift(tk, bp: BoundParams):
    """gamma t - mu1 K(t) - A(t) at a time or on a grid; the exponents carry -3 times this."""
    p = bp.params
    return p.gamma * tk - bp.mu1 * (0.5 * p.k_fn**2 * tk) - 0.5 * p.a_fn**2 * tk


def _moment(bp: BoundParams, s: float, alpha: float, beta: float) -> float:
    """Int_0^T exp(-s drift(t) + alpha a^2 t + beta b^2 t^(2H)) dt, every moment bound's integral.

    The drift is `_drift`; the a^2 t and b^2 t^(2H) terms are the variances of
    the Brownian and fractional-Brownian drivers.  An integrand that
    overflows a float is a NumericalError.
    """
    p = bp.params
    a2, b2, two_h = p.a_fn**2, p.b_fn**2, 2.0 * p.H

    def integrand(t: float) -> float:
        x = -s * _drift(t, bp) + alpha * a2 * t + beta * b2 * t**two_h
        try:
            return math.exp(x)
        except OverflowError as exc:
            raise NumericalError(f"bound integrand exp({x:.6g}) overflows a float") from exc

    return _quad(integrand, 0.0, p.T)


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
    return _moment(bp, 3.0, 4.5, 4.5)


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
    Volterra-representation variant.  Both are clamped to [0, 1]:
    `_moment(3, 4.5, 9H) / w` and `(_moment(6, 0, 0) + _moment(0, 3, 36H)) / w`.
    """
    w = bp.tau_star_threshold()
    if not math.isfinite(w):
        return 0.0
    H = bp.params.H
    if independent:
        value = _moment(bp, 3.0, 4.5, 9.0 * H) / w
    else:
        value = (_moment(bp, 6.0, 0.0, 0.0) + _moment(bp, 0.0, 3.0, 36.0 * H)) / w
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
    return GammaBoundResult(value=_gammainc(-nu, lam_tilde), almost_sure=False)


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
        self.time = math.inf

    def feed(self, start: int, log_terms: np.ndarray) -> None:
        running = np.logaddexp.accumulate(np.concatenate([self.carry, log_terms]))
        hits = np.flatnonzero(running >= self.log_threshold)
        if hits.size:
            self.time = self.dt * (start - self.carry.size + int(hits[0]) + 1)
            self.open = False
        else:
            self.carry = running[-1:]


class _Scan:
    """One range's scan: the constants its paths read and the buffers each path overwrites.

    dt, a and log dt; `sums`, each sum's (base, threshold), tau*'s then
    tau_*'s; the `workspace`, N (N + 1 entries) and `log_terms` (N entries).
    """

    def __init__(self, params: ModelParams, sums: tuple) -> None:
        self.dt, self.a, self.log_dt = params.dt, params.a_fn, math.log(params.dt)
        self.sums = sums
        self.workspace = PathWorkspace(params.N, params.dt, params.H, PATH_BLOCK)
        self.N = np.empty(params.N + 1)
        self.log_terms = np.empty(params.N)


def _path_crossings(seed: int, rng, fgn: np.ndarray, scan: _Scan) -> tuple[float, float]:
    """tau* and tau_* of the path `seed`, whose Brownian stream is `rng` and fGN term is `fgn`.

    The path is formed one `_segments` segment at a time: stream 1 is drawn
    for the segment's steps (`_drive`), the drive a dB + fgn is added to the
    running sum N from its last value, and the log terms of both sums are
    fed to their `_Crossing`.  The scan stops when both sums have crossed,
    so stream 1 is drawn only as far as the later crossing's segment, or to
    the horizon.  np.cumsum adds in order, so N has the bits of one cumsum
    over the whole drive.
    """
    N, log_terms = scan.N, scan.log_terms
    N[0] = 0.0
    crossings = [_Crossing(threshold, scan.dt) for _, threshold in scan.sums]
    for start, stop in _segments(log_terms.size):
        if not any(crossing.open for crossing in crossings):
            break
        drive = _drive(rng, scan.dt, scan.a, fgn, start, stop, scan.workspace.db)
        if start:
            drive[0] += N[start]
        np.cumsum(drive, out=N[start + 1 : stop + 1])
        for crossing, (base, _) in zip(crossings, scan.sums):
            if crossing.open:
                # the log of the left-endpoint term, 3 N + base + log dt
                terms = np.multiply(N[start:stop], 3.0, out=log_terms[start:stop])
                terms += base[start:stop]
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
    tau_* uses mu(t) = mu0 e^drift of the eigenfunction initial data
    v0 = W1 psi1 in the log domain: its base -3 log mu(t) is tau*'s base
    -3 drift less 3 log mu0, so no exp is taken and none can overflow.  The
    flag is True when tau_* <= tau* held on every path.  Only the
    first-crossing times are evaluated: both bases are formed once per call,
    the fGN of `PATH_BLOCK` paths is drawn by one transform, and each path
    is summed only as far as its scan (`_path_crossings`) reads.

    The paths are split into contiguous ranges, one per CPU of the affinity
    mask (`workers._ranges`), and `workers._map_ranges` runs them: one range
    inline, two or more on one worker thread each, with no BLAS to pin;
    numpy's normal fill and FFT release the GIL.  Each path's draw depends
    only on its index, and the per-range counts are combined exactly, so
    the result does not depend on the worker count.  Each range's `_Scan`
    is built here, on the calling thread, before any path is drawn.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    params = bp.params
    tk = params.dt * np.arange(params.N)
    star_base = -3.0 * _drift(tk, bp)
    lower_base = star_base - 3.0 * math.log(bp.mu0)
    sums = ((star_base, bp.tau_star_threshold()), (lower_base, bp.tau_lower_threshold()))

    def draw(paths: range) -> tuple[int, bool]:
        crossings, ordered = 0, True
        seeds = [derive_seed(master_seed, i) for i in paths]
        scan = scans[paths]
        for seed, (rng, fgn) in zip(seeds, _paths(seeds, params.b_fn, scan.workspace)):
            star, low = _path_crossings(seed, rng, fgn, scan)
            crossings += star <= params.T
            ordered = ordered and low <= star
        return crossings, ordered

    scans = {paths: _Scan(params, sums) for paths in _ranges(n_paths)}
    crossings, ordered = zip(*_map_ranges(draw, list(scans), []))
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
