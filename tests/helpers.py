"""Test-only readers and reference values that the package itself never needs."""

import csv

import numpy as np
from scipy.special import gamma

from quenchsim import bm_increments, derive_seed
from quenchsim import noise


def read_table(path) -> list[dict[str, float | None]]:
    """Parse a CSV written by emit_table back into row dictionaries."""
    with open(path, newline="") as handle:
        return [
            {key: None if raw == "" else float(raw) for key, raw in record.items()}
            for record in csv.DictReader(handle)
        ]


def boundary_profile_constant(alpha: float) -> float:
    """Exact value of (-Delta)^alpha (1-x^2)^alpha on (-1, 1).

    The profile matched to the operator order is mapped to a constant:
    4^a Gamma(1/2+a) Gamma(1+a) / Gamma(1/2).  Used to validate the
    quadrature oracle itself.
    """
    return float(4.0**alpha * gamma(0.5 + alpha) * gamma(1.0 + alpha) / gamma(0.5))


def per_seed_fgn(n_steps, dt, H, seed):
    """fGN of one seed by its own Davies-Harte embedding and one 1-D transform.

    The draw order is the package's pinned one; the embedding scales are
    formed here from `noise.fgn_autocovariance`, looked up when called, so a
    patched covariance reaches this draw too.
    """
    rng = np.random.default_rng(seed)
    if H == 0.5 or n_steps == 1:
        x = rng.standard_normal(n_steps)
        x *= np.sqrt(dt) if H == 0.5 else dt**H
        return x
    n, m = n_steps, 2 * n_steps
    g = noise.fgn_autocovariance(np.arange(n + 1), H, dt)
    lam = np.fft.fft(np.concatenate([g, g[n - 1 : 0 : -1]])).real
    lam[lam < 0.0] = 0.0
    draws, y = rng.standard_normal(m), np.empty(m, dtype=complex)
    re, im = y.real, y.imag
    re[0] = np.sqrt(lam[0] / m) * draws[0]
    re[n] = np.sqrt(lam[n] / m) * draws[1]
    im[0] = im[n] = 0.0
    inner = np.sqrt(lam[1:n] / (2.0 * m))
    np.multiply(inner, draws[2 : n + 1], out=re[1:n])
    np.multiply(inner, draws[n + 1 :], out=im[1:n])
    re[n + 1 :] = re[n - 1 : 0 : -1]
    np.negative(im[n - 1 : 0 : -1], out=im[n + 1 :])
    return np.fft.fft(y, out=y).real[:n]


def per_seed_drive(params, seed, c1, c2):
    """c1 dB + c2 dB^H of one seed, from its streams 1 and 2, drawn one seed at a time."""
    db = bm_increments(params.N, params.dt, derive_seed(seed, 1))
    fgn = per_seed_fgn(params.N, params.dt, params.H, derive_seed(seed, 2))
    fgn *= c2
    db *= c1
    db += fgn
    return db


def mixed_process(params, seed):
    """N_t = a B_t + b B^H_t of one seed at t_0..t_N: N_0 = 0, then the running sum."""
    drive = per_seed_drive(params, seed, params.a_fn, params.b_fn)
    return np.concatenate([[0.0], np.cumsum(drive)])


def coarsen(drive, r):
    """The drive of the grid with r times the step: each row sums r consecutive rows of `drive`.

    Brownian and fBM increments add, so the sums are exactly the coarse
    grid's increments of the same paths (the coupling of multilevel Monte
    Carlo).  The row count must be a multiple of r.
    """
    steps, width = drive.shape
    return drive.reshape(steps // r, r, width).sum(axis=1)
