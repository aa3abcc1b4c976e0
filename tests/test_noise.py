import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchsim import (
    BoundParams,
    ModelParams,
    bm_increments,
    bound_monte_carlo,
    derive_seed,
    fgn_autocovariance,
    fgn_circulant,
    sweep,
)
import quenchsim.noise as noise_mod
from quenchsim.noise import batch_drive
from quenchsim.cli import main

from helpers import per_seed_drive, per_seed_fgn


def bartlett_se(k, H, n, truncation=400):
    """Standard error of the lag-k autocovariance estimate from theory."""
    j = np.arange(-truncation, truncation + 1)
    gj = fgn_autocovariance(j, H)
    var = np.sum(gj**2 + fgn_autocovariance(j + k, H) * fgn_autocovariance(j - k, H)) / n
    return math.sqrt(var)


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestBrownianIncrements:
    def test_moments(self):
        n, dt = 100_000, 1e-4
        x = bm_increments(n, dt, seed=11)
        assert abs(x.mean()) <= 4.0 * math.sqrt(dt / n)
        assert abs(x.var() - dt) <= 0.05 * dt

    def test_deterministic_per_seed(self):
        a = bm_increments(1000, 0.01, seed=5)
        b = bm_increments(1000, 0.01, seed=5)
        assert np.array_equal(a, b)
        c = bm_increments(1000, 0.01, seed=6)
        assert not np.array_equal(a, c)

    def test_contract_errors(self):
        with pytest.raises(ValueError):
            bm_increments(0, 0.1, 1)
        with pytest.raises(ValueError):
            bm_increments(10, 0.0, 1)


class TestFgnCirculant:
    def test_half_hurst_formula_degenerates_to_white_noise(self):
        # gamma(k) vanishes identically for k >= 1 at H = 1/2
        ks = np.arange(1, 50)
        assert np.max(np.abs(fgn_autocovariance(ks, 0.5))) == 0.0
        assert fgn_autocovariance(0, 0.5, dt=0.25) == pytest.approx(0.25)

    def test_per_step_variance_is_gamma0(self):
        for H in (0.6, 0.75, 0.9):
            for dt in (1.0, 1e-3):
                assert fgn_autocovariance(0, H, dt) == pytest.approx(dt ** (2 * H))

    def test_lag1_autocorrelation(self):
        H, n = 0.7, 2**14
        x = fgn_circulant(n, 1.0, H, seed=3).increments
        rho1_hat = float(np.mean(x[:-1] * x[1:]) / np.mean(x * x))
        rho1 = (2.0 ** (2 * H) - 2.0) / 2.0
        assert rho1 == pytest.approx(0.3195, abs=5e-4)
        se = bartlett_se(1, H, n) / fgn_autocovariance(0, H)
        assert abs(rho1_hat - rho1) <= 3.0 * se

    @pytest.mark.parametrize("H", [0.6, 0.7, 0.9])
    def test_autocovariance_lags_0_to_5(self, H):
        n = 2**14
        x = fgn_circulant(n, 1.0, H, seed=21).increments
        for k in range(6):
            emp = float(np.mean(x[: n - k] * x[k:]))
            theory = float(fgn_autocovariance(k, H))
            assert abs(emp - theory) <= 4.0 * bartlett_se(k, H, n)

    def test_deterministic_and_flagless(self):
        a = fgn_circulant(4096, 1e-3, 0.8, seed=9)
        b = fgn_circulant(4096, 1e-3, 0.8, seed=9)
        assert np.array_equal(a.increments, b.increments)
        assert a.eigenvalue_clipped is False

    def test_variance_scaling_with_dt(self):
        H = 0.7
        x = fgn_circulant(2**13, 1e-2, H, seed=4).increments
        assert x.var() == pytest.approx((1e-2) ** (2 * H), rel=0.05)

    def test_self_similarity_of_paths(self):
        # B^H at scale a*t, rescaled by a^-H, matches the unit-scale
        # variance function at interior checkpoints
        H, n, scale = 0.75, 2048, 4.0
        n_paths = 400
        var_unit = np.zeros(5)
        var_scaled = np.zeros(5)
        checkpoints = (np.arange(1, 6) * n) // 6
        for i in range(n_paths):
            unit = np.cumsum(fgn_circulant(n, 1.0 / n, H, seed=100 + i).increments)
            scaled = np.cumsum(fgn_circulant(n, scale / n, H, seed=500_000 + i).increments)
            var_unit += unit[checkpoints - 1] ** 2
            var_scaled += (scale**-H * scaled[checkpoints - 1]) ** 2
        var_unit /= n_paths
        var_scaled /= n_paths
        # chi-square concentration: relative tolerance ~ 4 / sqrt(n_paths)
        assert np.all(np.abs(var_scaled / var_unit - 1.0) <= 4.0 / math.sqrt(n_paths))

    def test_hurst_domain(self):
        with pytest.raises(ValueError, match="Hurst"):
            fgn_circulant(16, 0.1, 0.4, seed=0)
        with pytest.raises(ValueError, match="Hurst"):
            fgn_circulant(16, 0.1, 1.0, seed=0)


def covariance_RH(t, s, H):
    """Fractional Brownian covariance R_H(t, s) = (t^2H + s^2H - |t-s|^2H) / 2."""
    return 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))


def summed_fgn_covariance(i, j, H, dt):
    """Cov(B^H(i dt), B^H(j dt)) as the double sum of fGN autocovariances."""
    lags = np.subtract.outer(np.arange(i), np.arange(j))
    return float(np.sum(fgn_autocovariance(lags, H, dt)))


class TestCovarianceRH:
    """Partial sums of the sampled fGN carry the fBM covariance R_H."""

    def test_unit_time(self):
        n = 64
        assert covariance_RH(1.0, 1.0, 0.7) == 1.0
        assert summed_fgn_covariance(n, n, 0.7, 1.0 / n) == pytest.approx(1.0, rel=1e-12)

    def test_reduces_to_min_at_half(self):
        dt = 0.1
        for i, j in ((3, 8), (12, 4), (5, 5)):
            got = summed_fgn_covariance(i, j, 0.5, dt)
            assert got == pytest.approx(min(i, j) * dt, rel=1e-12)

    def test_zero_time(self):
        assert covariance_RH(0.7, 0.0, 0.8) == 0.0
        assert summed_fgn_covariance(7, 0, 0.8, 0.1) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(
        i=st.integers(0, 40),
        j=st.integers(0, 40),
        H=st.floats(0.51, 0.99),
    )
    def test_symmetry_and_positivity(self, i, j, H):
        dt = 0.05
        got = summed_fgn_covariance(i, j, H, dt)
        assert got == pytest.approx(covariance_RH(i * dt, j * dt, H), rel=1e-9, abs=1e-12)
        assert got == pytest.approx(summed_fgn_covariance(j, i, H, dt), rel=1e-12, abs=1e-15)
        assert summed_fgn_covariance(i, i, H, dt) >= 0.0


class TestMixedPath:
    # N_t = a B_t + b B^H_t steps by a dB + b dB^H, which is a `batch_drive`
    # column at kappa1 = a, kappa2 = b; a column sum is N_T.
    SEEDS = range(10_000)

    def test_zero_coefficients_give_zero_process(self):
        drive = batch_drive(ModelParams(N=64, kappa1=0.0, kappa2=0.0), self.SEEDS[:100])
        assert drive.shape == (64, 100)
        assert np.all(drive == 0.0)

    def test_pure_brownian_terminal_variance(self):
        params = ModelParams(N=64, T=1.0, kappa1=1.0, kappa2=0.0)
        finals = batch_drive(params, self.SEEDS).sum(axis=0)
        assert finals.var() == pytest.approx(1.0, rel=0.05)

    def test_mixed_terminal_variance_adds(self):
        H = 0.7
        params = ModelParams(N=64, T=1.0, H=H, kappa1=1.0, kappa2=1.0)
        finals = batch_drive(params, self.SEEDS).sum(axis=0)
        assert finals.var() == pytest.approx(1.0 + 1.0 ** (2 * H), rel=0.05)

    def test_replay_bit_identical(self):
        params = ModelParams(N=256)
        seeds = self.SEEDS[70:80]
        assert np.array_equal(bits(batch_drive(params, seeds)), bits(batch_drive(params, seeds)))

    @pytest.mark.parametrize("a, b, H", [(0.1, 0.1, 0.7), (1.0, 0.3, 0.55), (0.0, 2.0, 0.9)])
    def test_streams_one_and_two_of_the_seed(self, a, b, H):
        # the increment a dB + b dB^H, with dB and dB^H drawn from the seed's
        # derived streams 1 and 2, bit for bit
        params = ModelParams(N=300, T=0.7, H=H, kappa1=a, kappa2=b)
        seed = derive_seed(5, 12)
        dt = params.T / params.N
        db = bm_increments(params.N, dt, derive_seed(seed, 1))
        dbh = fgn_circulant(params.N, dt, H, derive_seed(seed, 2)).increments
        (drive,) = batch_drive(params, [seed]).T
        assert np.array_equal(bits(drive), bits(a * db + b * dbh))


def test_fgn_negative_eigenvalue_fallback(hostile_covariance):
    # a non-embeddable covariance: the sampler must clip and flag
    sample = fgn_circulant(64, 1.0, 0.7, seed=1)
    assert sample.eigenvalue_clipped is True
    assert np.all(np.isfinite(sample.increments))


@pytest.mark.parametrize("covariance", ["fgn", "hostile"])
def test_clip_flag_is_the_grids(request, tmp_path, covariance):
    # Clipping depends on (n_steps, dt, H) alone: the sampler's flag on every
    # seed and the flags that realization.json and bounds_report.json write
    # all follow `_embedding_clipped`.
    if covariance == "hostile":
        request.getfixturevalue("hostile_covariance")
    seeds = [derive_seed(18, i) for i in range(6)]
    for n in (1, 2, 3, 100):
        for H in (0.5, 0.7):
            params = ModelParams(M=11, N=n, H=H)
            clipped = noise_mod._embedding_clipped(n, params.dt, H)
            assert clipped is (covariance == "hostile" and H != 0.5 and n > 1)
            for seed in seeds:
                assert fgn_circulant(n, params.dt, H, seed).eigenvalue_clipped is clipped
            cfg = tmp_path / "grid.cfg"
            cfg.write_text(f"M = 11\nN = {n}\nH = {H}\nlambda = 1e-5\na = 0.1\nb = 0.1\n"
                           "bound_paths = 5\n")
            out = tmp_path / f"{n}-{H}"
            for command in ("simulate", "bounds"):
                assert main([command, "--config", str(cfg), "--seed", "18", "--out", str(out)]) == 0
            meta = json.loads((out / "realization.json").read_text())
            assert meta["embedding_warning"] is clipped
            report = json.loads((out / "bounds_report.json").read_text())
            assert report["monte_carlo"]["embedding_warnings"] == (5 if clipped else 0)


def test_fgn_embedding_covariance_is_exact():
    # the sampler is linear in its 2n standard-normal draws; materializing
    # that map column by column gives the exact output covariance, which
    # must equal the target Toeplitz autocovariance to rounding
    n, H, dt = 64, 0.8, 0.5
    m = 2 * n
    g = fgn_autocovariance(np.arange(n + 1), H, dt)
    c = np.concatenate([g[:n], g[n : n + 1], g[n - 1:0:-1]])
    lam = np.fft.fft(c).real
    assert np.min(lam) > 0.0  # genuine embedding, no clipping

    def sample_from(draws):
        y = np.zeros(m, dtype=complex)
        y[0] = np.sqrt(lam[0] / m) * draws[0]
        y[n] = np.sqrt(lam[n] / m) * draws[1]
        y[1:n] = np.sqrt(lam[1:n] / (2.0 * m)) * (draws[2 : n + 1] + 1j * draws[n + 1 : m])
        y[n + 1 :] = np.conj(y[1:n][::-1])
        return np.fft.fft(y).real[:n]

    T = np.empty((n, m))
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        T[:, j] = sample_from(e)
    covariance = T @ T.T
    target = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            target[i, j] = g[abs(i - j)]
    assert np.max(np.abs(covariance - target)) <= 1e-12

    # and the packaged sampler realizes exactly this map for its draws
    rng = np.random.default_rng(123)
    draws = rng.standard_normal(m)
    direct = sample_from(draws)
    packaged = noise_mod.fgn_circulant(n, dt, H, seed=123).increments
    assert np.max(np.abs(direct - packaged)) <= 1e-14


class TestCirculantScaleCalls:
    # A workspace forms its grid's embedding scales once, when it is built:
    # one per `batch_drive` call, per bound worker and per `fgn_circulant` call.
    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        original = noise_mod._circulant_scale

        def counted(*grid):
            calls.append(grid)
            return original(*grid)

        monkeypatch.setattr(noise_mod, "_circulant_scale", counted)
        return calls

    def test_one_per_batch_drive(self, calls):
        # 300 realizations are two chunks, and a lambda sweep draws each once
        params = ModelParams(M=11, N=100)
        sweep(params, [("lambda", [0.2, 0.4, 1.0])], 300, master_seed=13)
        assert calls == [(params.N, params.dt, params.H)] * 2

    def test_one_per_bound_worker(self, calls, monkeypatch):
        params = ModelParams(N=64, lam=1e-4, a_fn=0.1, b_fn=0.1)
        bp = BoundParams(params, mu1=1.3, v0_psi1=0.3, mu0=0.5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        bound_monte_carlo(bp, 10, 3)
        assert calls == [(params.N, params.dt, params.H)] * 2

    def test_one_per_fgn_circulant(self, calls):
        for seed in range(3):
            fgn_circulant(100, 0.01, 0.7, seed)
        assert calls == [(100, 0.01, 0.7)] * 3


class TestPathWorkspace:
    # One workspace per grid, reused across seeds, must reproduce a fresh
    # draw bit for bit: a stale buffer entry or a lost signed zero shows in
    # the uint64 view.  The buffers start filled with NaN, so an entry the
    # sampler never writes shows too.
    @staticmethod
    def poisoned(params):
        workspace = noise_mod.PathWorkspace(params.N, params.dt, params.H, noise_mod.PATH_BLOCK)
        for buffer in (workspace.db, workspace.draws, workspace.spectrum, workspace.N):
            buffer.fill(np.nan)
        return workspace

    @staticmethod
    def assert_reuse_matches_fresh(params, seed, workspace):
        fresh = fgn_circulant(params.N, params.dt, params.H, seed).increments
        reused = noise_mod._fgn_rows([seed], workspace)[0]
        assert np.array_equal(bits(reused), bits(fresh))
        ((rng, fgn),) = noise_mod._paths([seed], 1.7, workspace)
        reused = noise_mod._drive(rng, params.dt, 0.3, fgn, 0, params.N, workspace.db)
        assert np.array_equal(bits(reused), bits(per_seed_drive(params, seed, 0.3, 1.7)))

    def test_interleaved_seeds_and_keys(self):
        grids = [
            ModelParams(N=n, T=T, H=H)
            for T in (1.0, 0.3)
            for H in (0.5, 0.55, 0.7, 0.9)
            for n in (1, 2, 3, 100, 1024)
        ]
        workspaces = [self.poisoned(params) for params in grids]
        for seed in (0, derive_seed(4, 9), 17):
            for params, workspace in zip(grids, workspaces):
                self.assert_reuse_matches_fresh(params, seed, workspace)

    def test_clipped_embedding(self, hostile_covariance):
        for n in (2, 3, 100):
            params = ModelParams(N=n, H=0.7)
            workspace = self.poisoned(params)
            for seed in range(5):
                assert fgn_circulant(n, params.dt, 0.7, seed).eigenvalue_clipped
                self.assert_reuse_matches_fresh(params, seed, workspace)


class TestBatchedTransform:
    # The premise of the block draw: the rows of one axis=1 transform are
    # the transforms of the rows, bit for bit, at composite and prime
    # lengths (the latter by Bluestein's algorithm in pocketfft).
    @pytest.mark.parametrize("m", [2, 3, 5, 7, 64, 97, 1009, 2000, 2003, 4093, 20000, 20014])
    def test_rows_equal_per_row_calls(self, rng, m):
        for rows in range(1, 6):
            y = rng.standard_normal((rows, m)) + 1j * rng.standard_normal((rows, m))
            batched = y.copy()
            np.fft.fft(batched, axis=1, out=batched)
            for j in range(rows):
                row = y[j].copy()
                np.fft.fft(row, out=row)
                assert np.array_equal(bits(batched[j]), bits(row))


class TestBlockDraw:
    # A full block of PATH_BLOCK seeds and a partial one
    SEEDS = [derive_seed(22, i) for i in range(noise_mod.PATH_BLOCK + 2)]

    def assert_per_seed(self, params):
        n, dt, H = params.N, params.dt, params.H
        expected = [per_seed_fgn(n, dt, H, seed) for seed in self.SEEDS]
        for k in range(1, 6):
            rows = noise_mod._fgn_rows(self.SEEDS[:k], noise_mod.PathWorkspace(n, dt, H, k))
            assert rows.shape == (k, n)
            for row, want in zip(rows, expected):
                assert np.array_equal(bits(row), bits(want))
        for seed, want in zip(self.SEEDS, expected):
            assert np.array_equal(bits(fgn_circulant(n, dt, H, seed).increments), bits(want))
        drive = batch_drive(params, self.SEEDS)
        for j, seed in enumerate(self.SEEDS):
            want = per_seed_drive(params, seed, params.kappa1, params.kappa2)
            assert np.array_equal(bits(drive[:, j]), bits(want))

    @pytest.mark.parametrize("H", [0.5, 0.7, 0.99])
    @pytest.mark.parametrize("n", [1, 2, 3, 1000, 10007])
    def test_block_draw_equals_per_seed_draw(self, n, H):
        params = ModelParams(N=n, T=0.7, H=H, kappa1=0.2, kappa2=0.9)
        self.assert_per_seed(params)

    def test_clipped_embedding(self, hostile_covariance):
        for n in (2, 3, 1000):
            params = ModelParams(N=n, H=0.7, kappa1=0.2, kappa2=0.9)
            assert noise_mod._embedding_clipped(n, params.dt, params.H)
            self.assert_per_seed(params)

    def test_segments_equal_one_draw(self):
        # the bound scan draws stream 1 over CROSSING_PREFIX-doubling segments
        n, dt = 1000, 1e-3
        fgn = per_seed_fgn(n, dt, 0.7, 3)
        whole = noise_mod._drive(np.random.default_rng(5), dt, 0.3, fgn, 0, n, np.empty(n))
        rng, out = np.random.default_rng(5), np.full(n, np.nan)
        for start, stop in ((0, 256), (256, 768), (768, n)):
            noise_mod._drive(rng, dt, 0.3, fgn, start, stop, out)
        assert np.array_equal(bits(out), bits(whole))
