"""Brownian and fractional-Brownian sampling plus the mixed driving process.

All samplers are pure functions of (parameters, seed).  The fractional
Gaussian noise sampler uses exact circulant embedding, so the increments
carry the exact target autocovariance up to floating rounding.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .seeding import derive_seed


class FgnSample(NamedTuple):
    increments: np.ndarray
    eigenvalue_clipped: bool


class PathWorkspace:
    """Buffers that every path of one length is drawn into, refilled in place.

    `batch_drive` draws all its seeds through one workspace, and a loop over
    many `mixed_path` draws passes one workspace to each draw instead of
    allocating the draws, the spectral vector, the increments and N afresh:
    at large n_steps those arrays let the heap trim and re-fault their pages
    on every path.  A path drawn into a workspace is overwritten by the next
    draw into it.
    """

    def __init__(self, n_steps: int) -> None:
        self.db = np.empty(n_steps)  # Brownian increments, then the drive
        self.draws = np.empty(2 * n_steps)  # the fGN sampler's standard normals
        self.spectrum = np.empty(2 * n_steps, dtype=complex)
        self.increments = np.empty(n_steps)  # the scaled fGN increments
        self.N = np.empty(n_steps + 1)


def bm_increments(n_steps: int, dt: float, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """i.i.d. Normal(0, dt) increments, deterministic per seed.

    `out`, when given, is a length-n_steps buffer filled in place and returned.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_steps, out=out)
    x *= np.sqrt(dt)
    return x


def fgn_autocovariance(k, H: float, dt: float = 1.0) -> np.ndarray:
    """gamma(k) = dt^(2H)/2 * (|k+1|^(2H) - 2|k|^(2H) + |k-1|^(2H))."""
    k = np.abs(np.asarray(k, dtype=float))
    return 0.5 * dt ** (2.0 * H) * (
        (k + 1.0) ** (2.0 * H) - 2.0 * k ** (2.0 * H) + np.abs(k - 1.0) ** (2.0 * H)
    )


def fgn_circulant(
    n_steps: int, dt: float, H: float, seed: int, workspace: PathWorkspace | None = None
) -> FgnSample:
    """Stationary fractional Gaussian noise via exact circulant embedding.

    Returns increments with per-step variance dt^(2H) and autocovariance
    `fgn_autocovariance`.  The covariance is embedded in a circulant of size
    2 * n_steps diagonalized by FFT (Davies-Harte); the embedding is
    nonnegative definite for fGN, but if rounding produces negative
    eigenvalues they are clipped to zero and the sample is flagged with
    `_embedding_clipped(n_steps, dt, H)`, which no seed enters.

    Draw order is pinned for reproducibility: one standard-normal block of
    length 2 * n_steps consumed as (real DC term, real Nyquist term,
    n_steps - 1 real parts, n_steps - 1 imaginary parts).  With a
    `workspace` the draws and the transform are made in its buffers, and the
    increments are a view of it.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not 0.5 <= H < 1.0:
        raise ValueError(f"Hurst index must lie in [1/2, 1), got {H}")
    rng = np.random.default_rng(seed)
    if H == 0.5 or n_steps == 1:
        out = None if workspace is None else workspace.draws[:n_steps]
        x = rng.standard_normal(n_steps, out=out)
        x *= np.sqrt(dt) if H == 0.5 else dt**H
        return FgnSample(x, _embedding_clipped(n_steps, dt, H))

    ends, inner, _ = _circulant_scale(n_steps, dt, H)
    m = 2 * n_steps
    if workspace is None:
        draws, y = rng.standard_normal(m), np.empty(m, dtype=complex)
    else:
        draws, y = rng.standard_normal(m, out=workspace.draws), workspace.spectrum
    # y is Hermitian: y[0] and y[n] are real, y[m - k] = conj(y[k]).  Every
    # entry is written on every draw, since the transform overwrites y.
    re, im = y.real, y.imag
    re[0] = ends[0] * draws[0]
    re[n_steps] = ends[1] * draws[1]
    im[0] = im[n_steps] = 0.0
    np.multiply(inner, draws[2 : n_steps + 1], out=re[1:n_steps])
    np.multiply(inner, draws[n_steps + 1 :], out=im[1:n_steps])
    re[n_steps + 1 :] = re[n_steps - 1 : 0 : -1]
    np.negative(im[n_steps - 1 : 0 : -1], out=im[n_steps + 1 :])
    # transform in place: no second 2n complex buffer, and none at all with a workspace
    return FgnSample(np.fft.fft(y, out=y).real[:n_steps], _embedding_clipped(n_steps, dt, H))


# One entry: every chunk drive and bound report samples all its paths on one
# (n_steps, dt, H), and more entries would only hold memory.
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


def _embedding_clipped(n_steps: int, dt: float, H: float) -> bool:
    """Whether `fgn_circulant` clips negative embedding eigenvalues on this grid.

    The embedding depends only on the covariance and the grid, so every path
    drawn on one (n_steps, dt, H) shares the flag, whatever its seed.  The
    white (H = 1/2) and one-step draws use no embedding and are never clipped.
    """
    if H == 0.5 or n_steps == 1:
        return False
    return _circulant_scale(n_steps, dt, H)[2]


def _noise_key(params) -> tuple:
    """What the solver drive of a seed depends on; parameter sets with one key share it."""
    return (params.N, params.dt, params.H, params.kappa1, params.kappa2)


def _drive(params, seed: int, c1: float, c2: float, workspace: PathWorkspace) -> np.ndarray:
    """c1 dB + c2 dB^H on the step grid of `params`.

    The Brownian and fractional increments are the seed's derived streams 1
    and 2.  `batch_drive` and `mixed_path` both draw through here, so that
    rule has one owner.  The sum is formed in the workspace's Brownian buffer.
    """
    db = bm_increments(params.N, params.dt, derive_seed(seed, 1), workspace.db)
    fgn = fgn_circulant(params.N, params.dt, params.H, derive_seed(seed, 2), workspace)
    scaled = np.multiply(fgn.increments, c2, out=workspace.increments)
    db *= c1
    db += scaled
    return db


def batch_drive(params, seeds, out: np.ndarray | None = None) -> np.ndarray:
    """The (N, len(seeds)) solver drive kappa1 dB + kappa2 dB^H, one column per seed.

    The drive depends on `params` only through `_noise_key`, so every
    parameter set sharing that key can step on it.  The seeds are drawn
    through one `PathWorkspace`.  `out`, when given, is an (N, width) buffer
    with width >= len(seeds); its leading columns are filled in place and
    returned as a view, so a caller can reuse one buffer across batches.
    """
    if out is None:
        out = np.empty((params.N, len(seeds)))
    drive = out[:, : len(seeds)]
    workspace = PathWorkspace(params.N)
    for j, seed in enumerate(seeds):
        drive[:, j] = _drive(params, seed, params.kappa1, params.kappa2, workspace)
    return drive


def mixed_path(params, seed: int, workspace: PathWorkspace | None = None) -> np.ndarray:
    """The mixed process N_t = a B_t + b B^H_t at t_0..t_N, with N_0 = 0.

    The coefficients a = `params.a_fn` and b = `params.b_fn` are constants,
    and N is accumulated by left-endpoint sums:
    N_{t_{k+1}} = N_{t_k} + a dB_k + b dB^H_k.  The path is drawn into the
    buffers of `workspace`, a `PathWorkspace` of `params.N` steps, or of a
    new one when none is given, and the returned array is the workspace's N.
    """
    if workspace is None:
        workspace = PathWorkspace(params.N)
    N = workspace.N
    N[0] = 0.0
    np.cumsum(_drive(params, seed, params.a_fn, params.b_fn, workspace), out=N[1:])
    return N
