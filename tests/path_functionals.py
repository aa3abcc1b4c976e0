"""Per-path stopping times of the bound report, for cross-checks.

tau* is the first step time at which the integral of
exp(-3 (gamma s - mu1 K(s) - A(s)) + 3 N_s) reaches w, and tau_* the
first at which the integral of e^(3 N_r) mu(r)^-3 reaches 1 / (4 lambda).  Each left-endpoint sum is one running
log-sum-exp over the whole horizon, read by `full_crossing`, not by the
bounds module's prefix-doubling search.  The exponents keep the bounds
module's operation order, so the times agree bit for bit.
"""

import math

import numpy as np


def full_crossing(log_terms, threshold, dt):
    """The crossing rule applied to the whole running log-sum-exp at once."""
    if not math.isfinite(threshold):
        return math.inf
    hits = np.flatnonzero(np.logaddexp.accumulate(log_terms) >= math.log(threshold))
    return dt * (int(hits[0]) + 1) if hits.size else math.inf


def tau_star(N, dt, bp):
    """tau* along the path N at t_0..t_n, with K(t) = k^2 t / 2 and A(t) = a^2 t / 2."""
    tk = dt * np.arange(len(N) - 1)
    p = bp.params
    drift = p.gamma * tk - bp.mu1 * (0.5 * p.k_fn**2 * tk) - 0.5 * p.a_fn**2 * tk
    log_terms = -3.0 * drift + 3.0 * N[:-1] + math.log(dt)
    return full_crossing(log_terms, bp.tau_star_threshold(), dt)


def tau_lower(N, dt, bp, mu_fn):
    """tau_* along the path N at t_0..t_n for the initial-data envelope mu(t)."""
    mu = np.asarray(mu_fn(dt * np.arange(len(N) - 1)), dtype=float)
    log_terms = -3.0 * np.log(mu) + 3.0 * N[:-1] + math.log(dt)
    return full_crossing(log_terms, bp.tau_lower_threshold(), dt)
