"""Brownian and fractional-Brownian sampling plus the mixed driving process.

All samplers are pure functions of (parameters, seed).  The fractional
Gaussian noise sampler uses exact circulant embedding, so the increments
carry the exact target autocovariance up to floating rounding.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .seeding import derive_seed

CoefficientLike = float | int | Callable[[np.ndarray], np.ndarray] | tuple


def as_coefficient(c: CoefficientLike) -> "Coefficient":
    if isinstance(c, Coefficient):
        return c
    return Coefficient(c)


class Coefficient:
    """Time coefficient: a constant, a callable of t, or a (t, value) table."""

    def __init__(self, spec: CoefficientLike) -> None:
        if isinstance(spec, (int, float)):
            self.constant: float | None = float(spec)
            self._fn = None
        elif callable(spec):
            self.constant = None
            self._fn = spec
        elif isinstance(spec, tuple) and len(spec) == 2:
            ts, vals = np.asarray(spec[0], float), np.asarray(spec[1], float)
            if ts.shape != vals.shape or ts.ndim != 1:
                raise ValueError("tabulated coefficient needs matching 1-D (t, value) arrays")
            self.constant = None
            self._fn = lambda t: np.interp(t, ts, vals)
        else:
            raise ValueError(f"cannot interpret coefficient spec {spec!r}")

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    def __call__(self, t):
        if self.constant is not None:
            return self.constant * np.ones_like(np.asarray(t, dtype=float))
        return np.asarray(self._fn(t), dtype=float)


@dataclass(frozen=True)
class NoisePath:
    """One realization of the driving increments and the mixed process N_t."""

    dt: float
    n_steps: int
    bm_increments: np.ndarray
    fbm_increments: np.ndarray
    N: np.ndarray  # accumulated mixed process at t_0..t_n; N[0] = 0
    embedding_warning: bool = False


class FgnSample(NamedTuple):
    increments: np.ndarray
    eigenvalue_clipped: bool


def bm_increments(n_steps: int, dt: float, seed: int) -> np.ndarray:
    """i.i.d. Normal(0, dt) increments, deterministic per seed."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n_steps) * np.sqrt(dt)


def fgn_autocovariance(k, H: float, dt: float = 1.0) -> np.ndarray:
    """gamma(k) = dt^(2H)/2 * (|k+1|^(2H) - 2|k|^(2H) + |k-1|^(2H))."""
    k = np.abs(np.asarray(k, dtype=float))
    return 0.5 * dt ** (2.0 * H) * (
        (k + 1.0) ** (2.0 * H) - 2.0 * k ** (2.0 * H) + np.abs(k - 1.0) ** (2.0 * H)
    )


def fgn_circulant(n_steps: int, dt: float, H: float, seed: int) -> FgnSample:
    """Stationary fractional Gaussian noise via exact circulant embedding.

    Returns increments with per-step variance dt^(2H) and autocovariance
    `fgn_autocovariance`.  The covariance is embedded in a circulant of size
    2 * n_steps diagonalized by FFT (Davies-Harte); the embedding is
    nonnegative definite for fGN, but if rounding produces negative
    eigenvalues they are clipped to zero and the sample is flagged.

    Draw order is pinned for reproducibility: one standard-normal block of
    length 2 * n_steps consumed as (real DC term, real Nyquist term,
    n_steps - 1 real parts, n_steps - 1 imaginary parts).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not 0.5 <= H < 1.0:
        raise ValueError(f"Hurst index must lie in [1/2, 1), got {H}")
    rng = np.random.default_rng(seed)
    if H == 0.5:
        return FgnSample(rng.standard_normal(n_steps) * np.sqrt(dt), False)
    if n_steps == 1:
        return FgnSample(rng.standard_normal(1) * dt**H, False)

    ends, inner, clipped = _circulant_scale(n_steps, dt, H)
    m = 2 * n_steps
    draws = rng.standard_normal(m)
    y = np.zeros(m, dtype=complex)
    y[0] = ends[0] * draws[0]
    y[n_steps] = ends[1] * draws[1]
    y[1:n_steps] = inner * (draws[2 : n_steps + 1] + 1j * draws[n_steps + 1 : m])
    y[n_steps + 1 :] = np.conj(y[1:n_steps][::-1])
    return FgnSample(np.fft.fft(y).real[:n_steps], clipped)


# One entry: every batch, sweep point and bound report samples all its paths
# on one (n_steps, dt, H), and more entries would only hold memory.
@functools.lru_cache(maxsize=1)
def _circulant_scale(n_steps: int, dt: float, H: float):
    """Scales sqrt(lambda / m) of the circulant embedding's spectral draws.

    The embedding of size m = 2 * n_steps depends only on (n_steps, dt, H),
    so its spectrum is computed once per key.  Returns read-only arrays of
    the real DC and Nyquist scales and of the n_steps - 1 complex-pair
    scales (lambda halved), and whether negative eigenvalues were clipped.
    """
    g = fgn_autocovariance(np.arange(n_steps + 1), H, dt)
    c = np.concatenate([g[:n_steps], g[n_steps : n_steps + 1], g[n_steps - 1 : 0 : -1]])
    lam = np.fft.fft(c).real
    clipped = bool(np.any(lam < 0.0))
    if clipped:
        lam = np.maximum(lam, 0.0)
    m = 2 * n_steps
    ends = np.sqrt(lam[[0, n_steps]] / m)
    inner = np.sqrt(lam[1:n_steps] / (2.0 * m))
    ends.flags.writeable = False
    inner.flags.writeable = False
    return ends, inner, clipped


def mixed_path(params, seed: int) -> NoisePath:
    """Sample the mixed process N_t = Int a dB + Int b dB^H on the step grid.

    The Brownian and fractional components are drawn from independent
    derived streams (indices 1 and 2 of `seed`), and N is accumulated by
    left-endpoint sums: N_{t_{k+1}} = N_{t_k} + a(t_k) dB_k + b(t_k) dB^H_k.
    """
    n, dt = params.N, params.T / params.N
    db = bm_increments(n, dt, derive_seed(seed, 1))
    fgn = fgn_circulant(n, dt, params.H, derive_seed(seed, 2))
    tk = dt * np.arange(n)
    a = as_coefficient(params.a_fn)(tk)
    b = as_coefficient(params.b_fn)(tk)
    N = np.concatenate([[0.0], np.cumsum(a * db + b * fgn.increments)])
    return NoisePath(
        dt=dt,
        n_steps=n,
        bm_increments=db,
        fbm_increments=fgn.increments,
        N=N,
        embedding_warning=fgn.eigenvalue_clipped,
    )
