"""Brownian and fractional-Brownian sampling and the solver drive.

All samplers are pure functions of (parameters, seed).  The fractional
Gaussian noise sampler uses exact circulant embedding, so the increments
carry the exact target autocovariance up to floating rounding.  A
`PathWorkspace` holds only what drawing one grid's paths needs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .seeding import derive_seed


# Kept while perfbench/spans.py reads `eigenvalue_clipped` off every traced
# `fgn_circulant` result; the class goes with ROADMAP item 5.
class FgnSample(NamedTuple):
    increments: np.ndarray
    eigenvalue_clipped: bool


# Paths drawn per transform: `batch_drive` and the bound loop draw the fGN of
# this many seeds through one FFT call, which pocketfft vectorizes across the
# rows (timings and the block sizes tried are in docs/decision-log.md).
PATH_BLOCK = 4


class PathWorkspace:
    """One grid's draws: its embedding scales and the buffers its paths are drawn into.

    The scales of the grid (n_steps, dt, H) are formed once, here, and every
    path of `batch_drive` or of a bound scan is drawn into the same buffers
    instead of allocating the draws and the spectral vectors afresh: at
    large n_steps those arrays let the heap trim and re-fault their pages
    on every path.  The fGN of up to `rows` seeds is drawn at once, one
    spectrum row each.  A path drawn into a workspace is overwritten by the
    next draw into it.
    """

    def __init__(self, n_steps: int, dt: float, H: float, rows: int = 1) -> None:
        self.n_steps, self.dt, self.H = n_steps, dt, H
        self.scales = _circulant_scale(n_steps, dt, H)
        self.db = np.empty(n_steps)  # Brownian increments, then the drive
        self.draws = np.empty(2 * n_steps)  # one seed's standard normals for the fGN sampler
        self.spectrum = np.empty((rows, 2 * n_steps), dtype=complex)


def bm_increments(n_steps: int, dt: float, seed: int) -> np.ndarray:
    """i.i.d. Normal(0, dt) increments, deterministic per seed.

    These are the increments `_drive` draws from a path's stream 1.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_steps)
    x *= np.sqrt(dt)
    return x


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
    eigenvalues they are clipped to zero and the sample is flagged, as is
    every sample of the grid whatever its seed (`_embedding_clipped`).  This
    is the one-row case of `_fgn_rows`, which fixes the draw order.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not 0.5 <= H < 1.0:
        raise ValueError(f"Hurst index must lie in [1/2, 1), got {H}")
    workspace = PathWorkspace(n_steps, dt, H)
    increments = _fgn_rows([seed], workspace)[0]
    return FgnSample(increments, workspace.scales is not None and workspace.scales[2])


def _fgn_rows(seeds, workspace: PathWorkspace) -> np.ndarray:
    """The fGN increments of each seed on the workspace's grid, one row per seed.

    Draw order is pinned for reproducibility: per seed, one standard-normal
    block of length 2 * n_steps consumed as (real DC term, real Nyquist
    term, n_steps - 1 real parts, n_steps - 1 imaginary parts).  The rows'
    spectral vectors are transformed by a single `np.fft.fft(axis=1)` call,
    whose rows equal separate one-row calls bit for bit.  The grids without
    scales (`_circulant_scale`) draw n_steps normals scaled by dt^H.
    Returns a (len(seeds), n_steps) view of the real part of the workspace's
    spectrum, which has at least len(seeds) rows.
    """
    n_steps, dt, H = workspace.n_steps, workspace.dt, workspace.H
    y = workspace.spectrum[: len(seeds)]
    draws = workspace.draws
    if workspace.scales is None:
        x = y.real[:, :n_steps]
        for row, seed in zip(x, seeds):
            row[:] = np.random.default_rng(seed).standard_normal(n_steps, out=draws[:n_steps])
        x *= np.sqrt(dt) if H == 0.5 else dt**H
        return x

    ends, inner, _ = workspace.scales
    for row, seed in zip(y, seeds):
        np.random.default_rng(seed).standard_normal(2 * n_steps, out=draws)
        # row is Hermitian: row[0] and row[n] are real, row[m - k] = conj(row[k]).
        # Every entry is written on every draw, since the transform overwrites it.
        re, im = row.real, row.imag
        re[0] = ends[0] * draws[0]
        re[n_steps] = ends[1] * draws[1]
        im[0] = im[n_steps] = 0.0
        np.multiply(inner, draws[2 : n_steps + 1], out=re[1:n_steps])
        np.multiply(inner, draws[n_steps + 1 :], out=im[1:n_steps])
        re[n_steps + 1 :] = re[n_steps - 1 : 0 : -1]
        np.negative(im[n_steps - 1 : 0 : -1], out=im[n_steps + 1 :])
    # transform in place: no second complex buffer
    return np.fft.fft(y, axis=1, out=y).real[:, :n_steps]


def _circulant_scale(n_steps: int, dt: float, H: float):
    """Scales sqrt(lambda / m) of the circulant embedding's spectral draws.

    The embedding of size m = 2 * n_steps depends only on (n_steps, dt, H).
    Returns the real DC and Nyquist scales, the n_steps - 1 complex-pair
    scales (lambda halved), and whether negative eigenvalues were clipped.
    The white (H = 1/2) and one-step grids need no embedding: None.
    """
    if H == 0.5 or n_steps == 1:
        return None
    g = fgn_autocovariance(np.arange(n_steps + 1), H, dt)
    c = np.concatenate([g[:n_steps], g[n_steps : n_steps + 1], g[n_steps - 1 : 0 : -1]])
    lam = np.fft.fft(c).real
    clipped = bool(np.any(lam < 0.0))
    if clipped:
        lam = np.maximum(lam, 0.0)
    m = 2 * n_steps
    ends = np.sqrt(lam[[0, n_steps]] / m)
    inner = np.sqrt(lam[1:n_steps] / (2.0 * m))
    return ends, inner, clipped


def _embedding_clipped(n_steps: int, dt: float, H: float) -> bool:
    """Whether `fgn_circulant` clips negative embedding eigenvalues on this grid.

    The embedding depends only on the covariance and the grid, so every path
    drawn on one (n_steps, dt, H) shares the flag, whatever its seed.  A grid
    without an embedding is never clipped.
    """
    scales = _circulant_scale(n_steps, dt, H)
    return scales is not None and scales[2]


def _noise_key(params) -> tuple:
    """What the solver drive of a seed depends on; parameter sets with one key share it."""
    return (params.N, params.dt, params.H, params.kappa1, params.kappa2)


def _paths(seeds, c2: float, workspace: PathWorkspace):
    """Yield each seed's Brownian stream and its fGN term c2 dB^H, in seed order.

    This is the one owner of the draw rule: a seed's Brownian increments are
    its derived stream 1, read through `_drive`, and its fGN increments its
    derived stream 2.  The fGN of as many seeds as the workspace has rows is
    drawn at once by `_fgn_rows` and scaled in place, so a row is overwritten
    once the generator moves past its block.
    """
    rows = workspace.spectrum.shape[0]
    for lo in range(0, len(seeds), rows):
        block = seeds[lo : lo + rows]
        streams = [derive_seed(seed, 2) for seed in block]
        fgn = _fgn_rows(streams, workspace)
        fgn *= c2
        for seed, row in zip(block, fgn):
            yield np.random.default_rng(derive_seed(seed, 1)), row


def _drive(rng, dt: float, c1: float, fgn: np.ndarray, start: int, stop: int, out: np.ndarray):
    """c1 dB + fgn on steps start..stop-1, formed in out[start:stop] and returned.

    dB are the next stop - start Normal(0, dt) draws of the Brownian stream
    `rng`, so drawing a path in consecutive segments gives the same
    increments as drawing it whole.
    """
    db = rng.standard_normal(stop - start, out=out[start:stop])
    db *= np.sqrt(dt)
    db *= c1
    db += fgn[start:stop]
    return db


def batch_drive(params, seeds, out: np.ndarray | None = None) -> np.ndarray:
    """The (N, len(seeds)) solver drive kappa1 dB + kappa2 dB^H, one column per seed.

    The drive depends on `params` only through `_noise_key`, so every
    parameter set sharing that key can step on it.  The seeds are drawn
    through one `PathWorkspace` of `PATH_BLOCK` rows.  `out`, when given, is
    an (N, width) buffer with width >= len(seeds); its leading columns are
    filled in place and returned as a view, so a caller can reuse one buffer
    across batches.
    """
    if out is None:
        out = np.empty((params.N, len(seeds)))
    drive = out[:, : len(seeds)]
    workspace = PathWorkspace(params.N, params.dt, params.H, PATH_BLOCK)
    for j, (rng, fgn) in enumerate(_paths(seeds, params.kappa2, workspace)):
        drive[:, j] = _drive(rng, params.dt, params.kappa1, fgn, 0, params.N, workspace.db)
    return drive

