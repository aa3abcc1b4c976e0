"""Analytic quenching-time and quenching-probability bounds.

Every bound is evaluated two ways where possible: as a closed-form or
quadrature expression in the model constants, and as a functional of
sampled noise paths, so the Monte Carlo estimates can be checked against
the theory.  Exponential path functionals accumulate through a running
log-sum-exp, which stays finite even when the raw integrand overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid, quad
from scipy.linalg import expm
from scipy.special import gammainc

from .noise import CoefficientLike, NoisePath, as_coefficient, mixed_path
from .operator import OperatorMatrix
from .seeding import derive_seed
from .solver import ModelParams

INFINITE_TIME = math.inf


@dataclass(frozen=True)
class BoundParams:
    """Constants entering the bound formulas.

    eta1/eta2 are the lower/upper growth-envelope constants of the
    nonlinearity, zeta_m/zeta_M the envelope extrema; they default to the
    unit-envelope case matching the simulated source.  psi1 and dx are
    optional but required by the eigenfunction-initial-data helpers.
    """

    mu1: float
    v0_psi1: float
    lam: float
    gamma: float = 0.0
    H: float = 0.7
    eta1: float = 1.0
    eta2: float = 1.0
    zeta_m: float = 1.0
    zeta_M: float = 1.0
    a_fn: CoefficientLike = 1.0
    b_fn: CoefficientLike = 1.0
    k_fn: CoefficientLike = 2.0
    psi1: np.ndarray | None = field(default=None, repr=False)
    dx: float | None = None

    def __post_init__(self) -> None:
        if self.mu1 <= 0:
            raise ValueError(f"principal eigenvalue must be positive, got {self.mu1}")
        if self.eta1 > self.eta2:
            raise ValueError("growth-envelope constants must satisfy eta1 <= eta2")
        if self.zeta_m > self.zeta_M:
            raise ValueError("envelope extrema must satisfy zeta_m <= zeta_M")
        if self.psi1 is not None:
            if np.any(self.psi1 <= 0):
                raise ValueError("psi1 must be componentwise positive")
            if self.dx is None:
                raise ValueError("dx is required alongside psi1")
            if abs(self.dx * float(np.sum(self.psi1)) - 1.0) > 1e-10:
                raise ValueError("psi1 must be normalized to unit integral")

    @property
    def psi_min(self) -> float:
        if self.psi1 is None:
            raise ValueError("psi1 was not provided")
        return float(np.min(self.psi1))

    def tau_star_threshold(self) -> float:
        """w = <v0, psi1>^3 / (3 lambda eta1 zeta_m); infinite when undefined."""
        denom = 3.0 * self.lam * self.eta1 * self.zeta_m
        if denom <= 0.0:
            return INFINITE_TIME
        return self.v0_psi1**3 / denom

    def tau_lower_threshold(self) -> float:
        """1 / (4 lambda eta2 zeta_M); infinite when undefined."""
        denom = 4.0 * self.lam * self.eta2 * self.zeta_M
        if denom <= 0.0:
            return INFINITE_TIME
        return 1.0 / denom


@dataclass(frozen=True)
class PathFunctionalResult:
    """First-crossing time and the accumulated functional along one path."""

    threshold_time: float
    integral_series: np.ndarray
    g_series: np.ndarray | None = None

    @property
    def crossed(self) -> bool:
        return math.isfinite(self.threshold_time)


def bound_params_from_model(
    params: ModelParams,
    pair,
    v0_psi1: float,
    eta1: float = 1.0,
    eta2: float = 1.0,
    zeta_m: float = 1.0,
    zeta_M: float = 1.0,
) -> BoundParams:
    """Assemble BoundParams from a model configuration and its eigenpair."""
    return BoundParams(
        mu1=pair.mu1,
        v0_psi1=v0_psi1,
        lam=params.lam,
        gamma=params.gamma,
        H=params.H,
        eta1=eta1,
        eta2=eta2,
        zeta_m=zeta_m,
        zeta_M=zeta_M,
        a_fn=params.a_fn,
        b_fn=params.b_fn,
        k_fn=params.k_fn,
        psi1=pair.psi1,
        dx=pair.dx,
    )


def _half_square_integral(t: float, coef) -> float:
    """(1/2) Int_0^t c(s)^2 ds, closed form for constants."""
    c = as_coefficient(coef)
    if c.is_constant:
        return 0.5 * c.constant**2 * t
    return 0.5 * quad(lambda s: float(c(s)) ** 2, 0.0, t, limit=200)[0]


def K_of(t: float, k_fn: CoefficientLike) -> float:
    """Diffusion clock K(t) = (1/2) Int_0^t k^2."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return _half_square_integral(t, k_fn)


def A_of(t: float, a_fn: CoefficientLike) -> float:
    """Brownian clock A(t) = (1/2) Int_0^t a^2."""
    if t < 0:
        raise ValueError("t must be non-negative")
    return _half_square_integral(t, a_fn)


def _half_square_cumulative(tk: np.ndarray, coef) -> np.ndarray:
    """K or A evaluated on a time grid (exact for constants)."""
    c = as_coefficient(coef)
    if c.is_constant:
        return 0.5 * c.constant**2 * tk
    vals = c(tk) ** 2
    return 0.5 * cumulative_trapezoid(vals, tk, initial=0.0)


def _drift(tk: np.ndarray, bp: BoundParams, eta: float) -> np.ndarray:
    """gamma eta t - mu1 K(t) - A(t); the path exponents carry it as -3 times this."""
    return (
        bp.gamma * eta * tk
        - bp.mu1 * _half_square_cumulative(tk, bp.k_fn)
        - _half_square_cumulative(tk, bp.a_fn)
    )


def M_of(T: float, bp: BoundParams) -> float:
    """Malliavin-derivative envelope M(T) = 18 Int a^2 + 36 H T^(2H-1) Int b^2."""
    if T <= 0:
        raise ValueError("T must be positive")
    int_a2 = 2.0 * A_of(T, bp.a_fn)
    int_b2 = 2.0 * _half_square_integral(T, bp.b_fn)
    return 18.0 * int_a2 + 36.0 * bp.H * T ** (2.0 * bp.H - 1.0) * int_b2


def _mixed_variance(t: float, bp: BoundParams, fbm_variance: str) -> float:
    """Var N_t for independent drivers; fBM part exact for constant b."""
    var_bm = 2.0 * A_of(t, bp.a_fn)
    b = as_coefficient(bp.b_fn)
    if fbm_variance == "exact" or (fbm_variance == "auto" and b.is_constant):
        if not b.is_constant:
            raise ValueError("exact fBM variance requires a constant b coefficient")
        return var_bm + b.constant**2 * t ** (2.0 * bp.H)
    # conservative envelope 2 H t^(2H-1) Int b^2
    int_b2 = 2.0 * _half_square_integral(t, bp.b_fn)
    return var_bm + 2.0 * bp.H * t ** (2.0 * bp.H - 1.0) * int_b2


def nu_of(T: float, bp: BoundParams, fbm_variance: str = "auto") -> float:
    """Mean accumulated exponential functional nu(T) = Int_0^T E[e^(X_t)] dt.

    X_t = -3 (gamma eta1 t - mu1 K(t) - A(t)) + 3 N_t, so the integrand is
    the deterministic envelope times E[e^(3 N_t)] = exp(4.5 Var N_t).  For
    constant b the fBM variance is exact; otherwise (or when
    fbm_variance="bound") the conservative envelope of the Malliavin
    estimate is used, making nu an upper proxy.
    """
    if T <= 0:
        raise ValueError("T must be positive")

    def integrand(t: float) -> float:
        drift = -3.0 * (
            bp.gamma * bp.eta1 * t - bp.mu1 * K_of(t, bp.k_fn) - A_of(t, bp.a_fn)
        )
        return math.exp(drift + 4.5 * _mixed_variance(t, bp, fbm_variance))

    return quad(integrand, 0.0, T, limit=200)[0]


def tail_upper_bound(T: float, w: float, bp: BoundParams, nu_T: float | None = None) -> float:
    """Gaussian-tail upper bound on P[tau* <= T], valid when w > nu(T).

    Returns min(1, 2 exp(-(ln w - ln nu)^2 / (2 M(T)))).
    """
    if nu_T is None:
        nu_T = nu_of(T, bp)
    if not w > nu_T:
        raise ValueError(
            f"tail bound requires w > nu(T); got w={w:.6g}, nu(T)={nu_T:.6g}"
        )
    mT = M_of(T, bp)
    if mT <= 0.0:
        raise ValueError("M(T) must be positive for the tail bound")
    return min(1.0, 2.0 * math.exp(-((math.log(w) - math.log(nu_T)) ** 2) / (2.0 * mT)))


def chebyshev_bounds(T: float, bp: BoundParams, independent: bool) -> float:
    """First-moment (Chebyshev) upper bound on P[tau* <= T].

    independent=True evaluates the bound for independent drivers; False the
    Volterra-representation variant.  Both are clamped to [0, 1].
    """
    if T <= 0:
        raise ValueError("T must be positive")
    w = bp.tau_star_threshold()
    if not math.isfinite(w):
        return 0.0
    H = bp.H

    def int_b2(t: float) -> float:
        return 2.0 * _half_square_integral(t, bp.b_fn)

    if independent:
        def integrand(t: float) -> float:
            e = 3.0 * (
                bp.mu1 * K_of(t, bp.k_fn)
                - bp.gamma * bp.eta1 * t
                + 4.0 * A_of(t, bp.a_fn)
                + 3.0 * H * t ** (2.0 * H - 1.0) * int_b2(t)
            )
            return math.exp(e)

        value = quad(integrand, 0.0, T, limit=200)[0] / w
    else:
        def first(t: float) -> float:
            return math.exp(
                6.0 * (bp.mu1 * K_of(t, bp.k_fn) + A_of(t, bp.a_fn) - bp.gamma * bp.eta1 * t)
            )

        def second(t: float) -> float:
            return math.exp(
                6.0 * A_of(t, bp.a_fn) + 36.0 * H * t ** (2.0 * H - 1.0) * int_b2(t)
            )

        value = (
            quad(first, 0.0, T, limit=200)[0] + quad(second, 0.0, T, limit=200)[0]
        ) / w
    return min(1.0, value)


@dataclass(frozen=True)
class GammaBoundResult:
    value: float
    almost_sure: bool


def gamma_lower_bound(bp: BoundParams, Lambda_cap: float) -> GammaBoundResult:
    """Lower bound on the quenching probability from the perpetual functional.

    With nu = (1 + mu1 - gamma eta1) / 3 < 0 the reciprocal of the perpetual
    exponential functional is Gamma(-nu) distributed, giving the regularized
    lower incomplete gamma P(-nu, 2 Lambda / (9 w)) as a lower bound on
    P[quench in finite time].  nu >= 0 is the almost-sure case: the bound is
    returned as 1 with the flag set.
    """
    nu = (1.0 + bp.mu1 - bp.gamma * bp.eta1) / 3.0
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


@dataclass(frozen=True)
class GeneralBoundResult:
    value: float
    m_w: float
    U_w: float
    vacuous: bool
    growth_condition_ok: bool


def growth_condition_ok(theta: float, eta: float, rho: float, H: float) -> bool:
    """Exponent condition theta > max(rho, H - 1/2 + eta) of the general bound."""
    return theta > max(rho, H - 0.5 + eta)


def general_lower_bound(
    bp: BoundParams,
    h_exponent: float,
    n_paths: int,
    T_trunc: float,
    master_seed: int,
    n_steps: int = 2048,
    grid_points: int = 4096,
    coefficient_exponents: tuple[float, float, float] = (0.5, 0.5, 0.5),
) -> GeneralBoundResult:
    """Concentration lower bound 1 - exp(-(m_w - 1)^2 / (2 U_w)) on quenching.

    U_w maximizes M(t) / (ln(w+1) + h(t))^2 over a dense logarithmic grid
    with h(t) = t^(2 theta); m_w is estimated by Monte Carlo over paths
    truncated at T_trunc (the truncation is an approximation: the supremum
    in m_w formally runs over all t).  The bound is meaningful only when
    m_w > 1; otherwise value 0 is returned with the vacuous flag.  The
    coefficient growth exponents (theta, eta, rho) are checked against the
    validity condition and reported, not enforced: constant coefficients
    sit exactly on its boundary yet are the reference configuration.
    """
    if n_paths < 1 or T_trunc <= 0:
        raise ValueError("need n_paths >= 1 and T_trunc > 0")
    theta = h_exponent
    w = bp.tau_star_threshold()
    if not math.isfinite(w):
        return GeneralBoundResult(0.0, 0.0, math.inf, True, False)
    log_w1 = math.log1p(w)

    t_scale = max(1.0, log_w1 ** (1.0 / (2.0 * theta)))
    grid = np.geomspace(1e-6 * t_scale, 1e4 * t_scale, grid_points)
    m_vals = np.array([M_of(float(t), bp) for t in grid])
    U_w = float(np.max(m_vals / (log_w1 + grid ** (2.0 * theta)) ** 2))

    params = ModelParams(
        lam=bp.lam,
        gamma=bp.gamma,
        H=bp.H,
        T=T_trunc,
        N=n_steps,
        a_fn=bp.a_fn,
        b_fn=bp.b_fn,
        k_fn=bp.k_fn,
    )
    sups = np.empty(n_paths)
    for i in range(n_paths):
        path = mixed_path(params, derive_seed(master_seed, i))
        tk = path.dt * np.arange(n_steps)
        exponent = -3.0 * _drift(tk, bp, bp.eta1) + 3.0 * path.N[:-1]
        log_integral = np.logaddexp.accumulate(exponent + math.log(path.dt))
        t_right = path.dt * np.arange(1, n_steps + 1)
        log_integral_plus_1 = np.logaddexp(log_integral, 0.0)
        ratio = (log_integral_plus_1 + t_right ** (2 * theta)) / (
            log_w1 + t_right ** (2 * theta)
        )
        sups[i] = float(np.max(ratio))
    m_w = float(np.mean(sups))

    ok = growth_condition_ok(theta, coefficient_exponents[1], coefficient_exponents[2], bp.H)
    if m_w <= 1.0 or not math.isfinite(U_w) or U_w <= 0.0:
        return GeneralBoundResult(0.0, m_w, U_w, True, ok)
    value = max(0.0, 1.0 - math.exp(-((m_w - 1.0) ** 2) / (2.0 * U_w)))
    return GeneralBoundResult(value, m_w, U_w, False, ok)


def _accumulate_crossing(
    path: NoisePath, log_integrand: np.ndarray, threshold: float
) -> tuple[float, np.ndarray]:
    """Left-endpoint accumulation with first-crossing detection in log space."""
    log_series = np.logaddexp.accumulate(log_integrand + math.log(path.dt))
    series = np.exp(log_series)
    if not math.isfinite(threshold):
        return INFINITE_TIME, series
    crossed = np.nonzero(log_series >= math.log(threshold))[0]
    if crossed.size == 0:
        return INFINITE_TIME, series
    return float(path.dt * (crossed[0] + 1)), series


def tau_star_sample(path: NoisePath, bp: BoundParams) -> PathFunctionalResult:
    """Upper-bound stopping time tau* evaluated along one sampled path.

    Accumulates Int_0^t exp(-3 (eta1 gamma s - mu1 K(s) - A(s)) + 3 N_s) ds
    by left-endpoint sums and reports the first step time at which it
    reaches w = <v0, psi1>^3 / (3 lambda eta1 zeta_m), or the infinity
    marker when no crossing happens within the path horizon.
    """
    tk = path.dt * np.arange(path.n_steps)
    exponent = -3.0 * _drift(tk, bp, bp.eta1) + 3.0 * path.N[:-1]
    time, series = _accumulate_crossing(path, exponent, bp.tau_star_threshold())
    return PathFunctionalResult(threshold_time=time, integral_series=series)


def eigen_mu(bp: BoundParams, W1: float):
    """Closed-form mu(t) for eigenfunction initial data v0 = W1 psi1."""
    if W1 <= 0:
        raise ValueError("W1 must be positive")
    psi_m = bp.psi_min

    def mu(t):
        return W1 * psi_m * np.exp(_drift(np.asarray(t, dtype=float), bp, bp.eta2))

    return mu


def semigroup_mu(op: OperatorMatrix, bp: BoundParams, v0: np.ndarray, coarse_times: np.ndarray):
    """mu(t) for arbitrary initial data via the discrete semigroup action.

    Evaluates inf_x exp(-K(t) A) v0 on a coarse time grid through dense
    matrix exponentials and interpolates linearly in between; an
    approximation, adequate because mu enters the functionals through a
    slowly varying envelope.
    """
    coarse_times = np.asarray(coarse_times, dtype=float)
    infima = np.empty(coarse_times.shape)
    for i, t in enumerate(coarse_times):
        k_t = K_of(float(t), bp.k_fn)
        infima[i] = float(np.min(expm(-k_t * op.entries) @ v0))
    if np.any(infima <= 0):
        raise ValueError("semigroup infimum is not positive on the requested grid")

    def mu(t):
        t = np.asarray(t, dtype=float)
        envelope = np.exp(
            bp.gamma * bp.eta2 * t - _half_square_cumulative(t, bp.a_fn)
        )
        return envelope * np.interp(t, coarse_times, infima)

    return mu


def tau_lower_sample(path: NoisePath, bp: BoundParams, mu_fn) -> PathFunctionalResult:
    """Lower-bound stopping time tau_* along one sampled path.

    Accumulates Int_0^t e^(3 N_r) mu(r)^-3 dr against the threshold
    1 / (4 lambda eta2 zeta_M) and also returns the survival envelope
    G(t) = (1 - 4 lambda eta2 zeta_M * integral)^(1/4), clamped to [0, 1]
    (zero marks the crossing and beyond); G(0) = 1 by construction.
    """
    tk = path.dt * np.arange(path.n_steps)
    mu_vals = np.asarray(mu_fn(tk), dtype=float)
    if np.any(mu_vals <= 0):
        raise ValueError("mu(t) must be positive on the path horizon")
    exponent = 3.0 * path.N[:-1] - 3.0 * np.log(mu_vals)
    threshold = bp.tau_lower_threshold()
    time, series = _accumulate_crossing(path, exponent, threshold)
    if math.isfinite(threshold):
        radicand = np.clip(1.0 - series / threshold, 0.0, 1.0)
    else:
        radicand = np.ones_like(series)
    g_series = np.concatenate([[1.0], radicand**0.25])
    return PathFunctionalResult(threshold_time=time, integral_series=series, g_series=g_series)


def bound_monte_carlo(
    params: ModelParams, bp: BoundParams, mu_fn, n_paths: int, master_seed: int
) -> tuple[float, bool]:
    """Empirical P[tau* <= T] over sampled paths, and the per-path ordering.

    Path i is `mixed_path(params, derive_seed(master_seed, i))`, the seeding
    policy of the ensembles, so distinct master seeds draw disjoint paths.
    The flag is True when tau_* <= tau* held on every path.
    """
    crossings = 0
    ordered = True
    for i in range(n_paths):
        path = mixed_path(params, derive_seed(master_seed, i))
        star = tau_star_sample(path, bp)
        low = tau_lower_sample(path, bp, mu_fn)
        crossings += star.threshold_time <= params.T
        ordered = ordered and low.threshold_time <= star.threshold_time
    return crossings / n_paths, ordered


def global_existence_check(
    path: NoisePath, bp: BoundParams, W1: float, T_trunc: float
) -> bool:
    """Truncated check of the global-existence integral condition.

    True when the accumulated integral of e^{-3 (gamma eta2 s - mu1 K - A
    - N_s)} stays below W2 = (W1 psi_min)^3 / (4 lambda eta2 zeta_M) up to
    T_trunc and the deterministic decay rate at T_trunc is negative.  A
    truncation-based heuristic: the true condition integrates to infinity.
    """
    psi_m = bp.psi_min
    denom = 4.0 * bp.lam * bp.eta2 * bp.zeta_M
    w2 = (W1 * psi_m) ** 3 / denom if denom > 0 else INFINITE_TIME
    if w2 <= 0.0:
        return False
    if not math.isfinite(w2):
        return True
    n_use = min(path.n_steps, int(round(T_trunc / path.dt)))
    if n_use < 1:
        raise ValueError("T_trunc shorter than one path step")
    tk = path.dt * np.arange(n_use)
    exponent = -3.0 * _drift(tk, bp, bp.eta2) + 3.0 * path.N[:n_use]
    log_total = float(np.logaddexp.reduce(exponent + math.log(path.dt)))
    if log_total >= math.log(w2):
        return False
    t_end = float(tk[-1])
    k_rate = float(as_coefficient(bp.k_fn)(t_end)) ** 2 / 2.0
    a_rate = float(as_coefficient(bp.a_fn)(t_end)) ** 2 / 2.0
    return bp.gamma * bp.eta2 > bp.mu1 * k_rate + a_rate
