import json
import math
import os
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import gammainc

from quenchsim import (
    BoundParams,
    ModelParams,
    M_of,
    bound_monte_carlo,
    bound_report,
    chebyshev_bounds,
    derive_seed,
    eigen_mu,
    gamma_lower_bound,
    nu_of,
    parse_config,
    tail_upper_bound,
)
from quenchsim import bounds, validation
from quenchsim.cli import main
from quenchsim.errors import NumericalError
from quenchsim.operator import assemble_matrix
from quenchsim.spectral import inner_product_v0_psi1, principal_eigenpair, trapezoid_integral

from helpers import mixed_process
from naive_reference import naive_incomplete_gamma
from path_functionals import full_crossing, tau_lower, tau_star
from test_golden import BOUND_PINS


def make_bp(mu1=1.3, v0_psi1=0.3, mu0=0.5, **model):
    """Bound constants over a toy model; `model` overrides its ModelParams fields."""
    params = ModelParams(**{**dict(lam=1e-4, a_fn=0.1, b_fn=0.1), **model})
    return BoundParams(params, mu1=mu1, v0_psi1=v0_psi1, mu0=mu0)


def eigen_bp(params, pair, w1=0.5):
    """Bound constants of eigenfunction initial data v0 = w1 psi1."""
    v0_psi1 = w1 * trapezoid_integral(pair.psi1**2, pair.dx)
    return BoundParams(params, pair.mu1, v0_psi1, w1 * float(np.min(pair.psi1)))


def flat_path(n=200):
    return np.zeros(n + 1)


class TestMOf:
    def test_zero_coefficients(self):
        assert M_of(make_bp(a_fn=0.0, b_fn=0.0)) == 0.0

    def test_unit_coefficients_closed_form(self):
        bp = make_bp(a_fn=1.0, b_fn=1.0, H=0.75)
        assert M_of(bp) == pytest.approx(18.0 + 36.0 * 0.75)


class TestNuOf:
    def test_trivial_config_integrates_time(self):
        bp = make_bp(a_fn=0.0, b_fn=0.0, k_fn=0.0, gamma=0.0, T=3.0)
        assert nu_of(bp) == pytest.approx(3.0, rel=1e-10)

    def test_constant_a_closed_form(self):
        a, mu1, k = 0.2, 1.3, 0.5
        bp = make_bp(a_fn=a, b_fn=0.0, k_fn=k, mu1=mu1, gamma=0.0)
        # integrand exp(c t) with c = 3 mu1 k^2/2 + 3 a^2/2 + 4.5 a^2
        c = 3 * mu1 * k**2 / 2 + 1.5 * a**2 + 4.5 * a**2
        T = bp.params.T
        assert nu_of(bp) == pytest.approx((math.exp(c * T) - 1.0) / c, rel=1e-8)

    def test_monotone_in_horizon(self):
        values = [nu_of(make_bp(T=T)) for T in (0.25, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestTailUpperBound:
    def test_three_sigma_point(self):
        # w chosen three deviations above nu gives exactly 2 exp(-9/2)
        bp = make_bp()
        nu1 = nu_of(bp)
        m1 = M_of(bp)
        w = nu1 * math.exp(3.0 * math.sqrt(m1))
        value = tail_upper_bound(w, bp, nu1)
        assert value == pytest.approx(2.0 * math.exp(-4.5), rel=1e-12)
        assert value == pytest.approx(0.0222, abs=2e-4)

    def test_vanishes_for_large_threshold(self):
        bp = make_bp()
        nu1 = nu_of(bp)
        assert tail_upper_bound(1e300, bp, nu1) < 1e-10

    def test_condition_violation_raises(self):
        bp = make_bp()
        nu1 = nu_of(bp)
        with pytest.raises(ValueError, match="w > nu"):
            tail_upper_bound(0.5 * nu1, bp, nu1)


class TestChebyshevBounds:
    def test_vanishes_as_inner_product_grows(self):
        small = make_bp(v0_psi1=0.3)
        large = make_bp(v0_psi1=3e5)
        for independent in (True, False):
            assert chebyshev_bounds(large, independent) < 1e-10
            assert chebyshev_bounds(small, independent) <= 1.0

    def test_small_horizon_slope(self):
        # integrand tends to 1 at t = 0, so bound ~ T / w to first order
        for T in (1e-4, 1e-5):
            bp = make_bp(T=T)
            w = bp.tau_star_threshold()
            value = chebyshev_bounds(bp, independent=True)
            assert value * w / T == pytest.approx(1.0, abs=0.01)

    def test_clamped_to_unit_interval(self):
        bp = make_bp(lam=10.0, v0_psi1=1e-3)
        assert chebyshev_bounds(bp, True) == 1.0
        assert chebyshev_bounds(bp, False) == 1.0


class TestMomentClosedForms:
    """nu(T) and both Chebyshev bounds against closed forms of each of their integrals.

    v0_psi1 = 100 and lambda = 1e-3 put w = 3.3e8 far above every integral,
    so no bound clamps and each value is its integral (or their sum) over w.
    """

    MODEL = dict(v0_psi1=100.0, lam=1e-3)

    @staticmethod
    def check(bp, nu, independent, volterra):
        w = bp.tau_star_threshold()
        assert nu_of(bp) == pytest.approx(nu, rel=1e-9)
        assert chebyshev_bounds(bp, True) == pytest.approx(independent / w, rel=1e-9)
        assert chebyshev_bounds(bp, False) == pytest.approx(volterra / w, rel=1e-9)

    @pytest.mark.parametrize("gamma, a, k, T", [(0.5, 0.2, 0.5, 1.0), (2.0, 0.5, 1.0, 0.5),
                                                (0.0, 0.3, 1.5, 2.0)])
    def test_brownian_exponentials(self, gamma, a, k, T):
        # b = 0: every integrand is e^(c t), with integral (e^(cT) - 1) / c
        bp = make_bp(a_fn=a, b_fn=0.0, k_fn=k, gamma=gamma, T=T, **self.MODEL)
        drift = gamma - bp.mu1 * k**2 / 2 - a**2 / 2

        def integral(c):
            return math.expm1(c * T) / c

        moment = integral(-3.0 * drift + 4.5 * a**2)
        self.check(bp, moment, moment, integral(-6.0 * drift) + integral(3.0 * a**2))

    @pytest.mark.parametrize("H", [0.6, 0.7, 0.9])
    def test_fractional_series(self, H):
        # a = k = gamma = 0: every integrand is e^(beta b^2 t^(2H)), with integral
        # sum_n (beta b^2)^n T^(2Hn+1) / (n! (2Hn+1))
        b, T = 0.3, 1.0
        bp = make_bp(a_fn=0.0, b_fn=b, k_fn=0.0, gamma=0.0, H=H, T=T, **self.MODEL)

        def integral(beta):
            return math.fsum((beta * b**2) ** n * T ** (2 * H * n + 1)
                             / (math.factorial(n) * (2 * H * n + 1)) for n in range(60))

        self.check(bp, integral(4.5), integral(9.0 * H), T + integral(36.0 * H))


class TestGammaLowerBound:
    def test_full_mass_limit(self):
        bp = make_bp(mu1=1.0, gamma=5.0, lam=0.01, v0_psi1=0.3)
        # nu = (1 + 1 - 5)/3 = -1 < 0
        result = gamma_lower_bound(bp, Lambda_cap=1e12)
        assert result.value == pytest.approx(1.0, abs=1e-8)
        assert not result.almost_sure

    def test_zero_cap_gives_zero(self):
        bp = make_bp(mu1=1.0, gamma=5.0)
        assert gamma_lower_bound(bp, Lambda_cap=0.0).value == 0.0

    def test_negative_cap_rejected(self):
        bp = make_bp(mu1=1.0, gamma=5.0)
        with pytest.raises(ValueError):
            gamma_lower_bound(bp, Lambda_cap=-1.0)

    def test_exponential_closed_form(self):
        # gamma = 3 + mu1 makes nu = -1; scaled cap 1: P(1,1) = 1 - 1/e
        bp = make_bp(mu1=1.0, gamma=5.0)
        w = bp.tau_star_threshold()
        cap = 9.0 * w / 2.0  # makes the scaled cap exactly 1
        result = gamma_lower_bound(bp, Lambda_cap=cap)
        assert result.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    def test_closed_form_cross_checked_by_quadrature(self):
        bp = make_bp(mu1=1.2, gamma=4.0)  # nu = (2.2 - 4)/3 = -0.6
        w = bp.tau_star_threshold()
        cap = 9.0 * w / 4.0  # scaled cap 0.5
        result = gamma_lower_bound(bp, Lambda_cap=cap)
        # midpoint oracle resolves the y^(a-1) singularity to ~1e-4
        assert result.value == pytest.approx(naive_incomplete_gamma(0.6, 0.5), abs=5e-4)

    def test_almost_sure_case(self):
        bp = make_bp(mu1=1.0, gamma=0.1)
        result = gamma_lower_bound(bp, Lambda_cap=1.0)
        assert result.value == 1.0
        assert result.almost_sure


class TestTauStarSample:
    """The oracle's tau* on paths whose crossing is known."""

    def test_flat_path_linear_accumulation(self):
        # integrand 1 everywhere: crossing at the first grid time >= w
        bp = make_bp(a_fn=0.0, b_fn=0.0, k_fn=0.0, gamma=0.0,
                     lam=1.0, v0_psi1=(3.0 * 0.5) ** (1 / 3))
        w = bp.tau_star_threshold()
        assert w == pytest.approx(0.5)
        assert tau_star(flat_path(n=1000), 1e-3, bp) == pytest.approx(0.5, abs=2e-3)

    def test_huge_threshold_returns_infinity(self):
        bp = make_bp(lam=1e-300)
        assert math.isinf(tau_star(flat_path(), 0.005, bp))

    def test_zero_lambda_threshold_infinite(self):
        bp = make_bp(lam=0.0)
        assert math.isinf(bp.tau_star_threshold())
        assert math.isinf(tau_star(flat_path(), 0.005, bp))

    def test_flat_path_refinement_consistency(self):
        # zero-noise accumulation at two resolutions crosses within O(dt)
        bp = make_bp(a_fn=0.0, b_fn=0.0, k_fn=0.0, gamma=0.0,
                     lam=1.0, v0_psi1=(3.0 * 0.37) ** (1 / 3))
        coarse = tau_star(flat_path(n=512), 1.0 / 512, bp)
        fine = tau_star(flat_path(n=1024), 1.0 / 1024, bp)
        assert math.isfinite(coarse)
        assert coarse == pytest.approx(fine, abs=2.0 / 512)

    def test_reaccumulation_with_plain_loop(self):
        # the crossing of a scalar re-accumulation of the same integrand on
        # the same path
        bp = make_bp(N=256, lam=5e-3, a_fn=0.2, b_fn=0.2, gamma=0.3)
        N, dt = mixed_process(bp.params, 7), bp.params.dt
        w = bp.tau_star_threshold()
        total, crossing = 0.0, math.inf
        for m in range(bp.params.N):
            t = m * dt
            exponent = (
                -3.0 * (bp.params.gamma * t - bp.mu1 * 0.5 * 2.0**2 * t - 0.5 * 0.2**2 * t)
                + 3.0 * N[m]
            )
            total += math.exp(exponent) * dt
            if total >= w:
                crossing = (m + 1) * dt
                break
        assert math.isfinite(crossing)
        assert tau_star(N, dt, bp) == crossing


class TestTauLowerSample:
    def test_flat_path_unit_mu_crossing(self):
        bp = make_bp(lam=1.0)
        threshold = bp.tau_lower_threshold()
        assert threshold == pytest.approx(0.25)
        time = tau_lower(flat_path(n=1000), 1e-3, bp, lambda t: np.ones_like(np.asarray(t, float)))
        assert time == pytest.approx(0.25, abs=2e-3)

    def test_underflowing_mu_still_scans(self):
        # mu(t) = mu(0) exp(-mu1 k^2 t / 2 - ...) underflows to 0 at k = 100,
        # but tau_*'s base -3 log mu(t) is formed in the log domain: both sums
        # cross at the second step
        bp = make_bp(N=64, k_fn=100.0)
        assert eigen_mu(bp, bp.params.T) == 0.0
        assert bound_monte_carlo(bp, 1, 0) == (1.0, True)

    def test_overflowing_mu_raises_no_warning(self):
        # mu(t) = mu(0) exp(gamma t - ...) overflows at gamma = 1e6; no exp of
        # the drift is taken, so no RuntimeWarning, and neither sum crosses
        bp = make_bp(N=64, gamma=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert bound_monte_carlo(bp, 4, 0) == (0.0, True)


class TestPathOrdering:
    def test_tau_lower_below_tau_star_with_eigen_data(self, grid41, op41, pair41):
        w1 = 0.5
        params = ModelParams(lam=1e-5, N=512, a_fn=0.1, b_fn=0.1)
        _, ordered = bound_monte_carlo(eigen_bp(params, pair41, w1), 50, master_seed=0)
        assert ordered


class TestBoundMonteCarlo:
    # The loop hands each path to `bounds._path_crossings` with the path's
    # seed; these spies wrap it and call through.
    def test_master_seeds_draw_disjoint_paths(self, monkeypatch, pair41):
        drawn = []
        path_crossings = bounds._path_crossings

        def recording_scan(seed, *args):
            drawn.append(seed)
            return path_crossings(seed, *args)

        monkeypatch.setattr(bounds, "_path_crossings", recording_scan)
        bp = eigen_bp(ModelParams(lam=1e-5, N=64, a_fn=0.1, b_fn=0.1), pair41)
        seeds = []
        for master in (0, 1):
            drawn.clear()
            bound_monte_carlo(bp, 2000, master)
            seeds.append(set(drawn))
        assert len(seeds[0]) == len(seeds[1]) == 2000
        assert seeds[0].isdisjoint(seeds[1])

    @staticmethod
    def crossing_case(pair41):
        # about a third of the paths cross tau* by T
        return eigen_bp(ModelParams(lam=2e-5, N=256, a_fn=0.1, b_fn=0.1), pair41)

    @pytest.mark.parametrize("n_paths", [1, 2, 25])
    def test_result_does_not_depend_on_worker_count(self, monkeypatch, pair41, n_paths):
        bp = self.crossing_case(pair41)
        workers = []
        path_crossings = bounds._path_crossings

        def recording_scan(seed, *args):
            workers.append(threading.get_ident())
            return path_crossings(seed, *args)

        monkeypatch.setattr(bounds, "_path_crossings", recording_scan)
        results = []
        for cpus in (1, 2, 3):
            affinity = set(range(cpus))
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
            workers.clear()
            results.append(bound_monte_carlo(bp, n_paths, 3))
            assert len(workers) == n_paths
            if min(cpus, n_paths) == 1:
                # one range is drawn inline, on the calling thread
                assert set(workers) == {threading.get_ident()}
            else:
                assert threading.get_ident() not in workers  # the caller draws no path
                assert len(set(workers)) <= min(cpus, n_paths)
        assert results[0] == results[1] == results[2]
        if n_paths == 25:
            assert 0.0 < results[0][0] < 1.0

    def test_worker_exception_leaves_and_no_worker_survives(self, monkeypatch, pair41):
        bp = self.crossing_case(pair41)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        error = RuntimeError("draw failed")
        failing = derive_seed(3, 7)  # path 7 of 10 lies in the second range, 5..9
        path_crossings = bounds._path_crossings

        def failing_scan(seed, *args):
            if seed == failing:
                raise error
            return path_crossings(seed, *args)

        monkeypatch.setattr(bounds, "_path_crossings", failing_scan)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError) as raised:
            bound_monte_carlo(bp, 10, 3)
        assert raised.value is error
        assert [t for t in threading.enumerate() if t not in before] == []

    @pytest.mark.parametrize("lam, last_ends", [(2e-5, {1024}), (0.01, {256, 768})])
    def test_brownian_stream_drawn_to_the_crossing_segment(
        self, monkeypatch, pair41, lam, last_ends
    ):
        # Stream 1 is drawn segment by segment, CROSSING_PREFIX steps and then
        # doubling, up to the segment that holds the tau* crossing, and over
        # all N steps when tau* does not cross.  At 2e-5 most paths never
        # cross and the rest cross in the last segment; at 0.01 every path
        # crosses, on both sides of the first prefix.
        bp = eigen_bp(ModelParams(lam=lam, N=1024, a_fn=0.1, b_fn=0.1), pair41)
        n = bp.params.N
        ends, size = [], bounds.CROSSING_PREFIX
        while not ends or ends[-1] < n:
            ends.append(min((ends[-1] if ends else 0) + size, n))
            size *= 2
        paths, drive, path_crossings = [], bounds._drive, bounds._path_crossings

        def recording_scan(seed, *args):
            paths.append([])
            times = path_crossings(seed, *args)
            # the running sum continued segment by segment is the path's N
            stop = paths[-1][-1][1]
            summed = args[-1].N[: stop + 1]
            want = mixed_process(bp.params, seed)[: stop + 1]
            assert np.array_equal(summed.view(np.uint64), want.view(np.uint64))
            paths[-1] = (times, paths[-1])
            return times

        def recording_drive(rng, dt, c1, fgn, start, stop, out):
            paths[-1].append((start, stop))
            return drive(rng, dt, c1, fgn, start, stop, out)

        monkeypatch.setattr(bounds, "_path_crossings", recording_scan)
        monkeypatch.setattr(bounds, "_drive", recording_drive)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        _, ordered = bound_monte_carlo(bp, 40, 3)
        assert ordered  # tau_* crosses first, so tau* alone decides where the draws end
        last, stars = set(), []
        for (star, _), segments in paths:
            if math.isinf(star):
                end = n
            else:
                end = next(e for e in ends if e >= round(star / bp.params.dt))
            assert segments == list(zip([0] + ends, ends[: ends.index(end) + 1]))
            last.add(end)
            stars.append(star)
        assert len(paths) == 40 and last == last_ends
        assert any(map(math.isinf, stars)) == (lam == 2e-5)
        assert any(map(math.isfinite, stars))


class TestBoundReport:
    TOY = "M = 11\nN = 128\nlambda = 1e-05\na = 0.1\nb = 0.1\nbound_paths = 20\n"

    def test_bounds_and_validate_share_the_pipeline(self, monkeypatch, tmp_path):
        calls = []

        def recording_report(config):
            calls.append(config)
            return bound_report(config)

        monkeypatch.setattr(bounds, "bound_report", recording_report)
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(self.TOY)
        assert main(["bounds", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path)]) == 0
        config = replace(parse_config(self.TOY), master_seed=3)
        assert calls == [replace(config, out_dir=tmp_path)]
        written = (tmp_path / "bounds_report.json").read_text()
        assert written == json.dumps(bound_report(config), indent=2) + "\n"
        assert validation._check_bound_inequalities().passed
        assert len(calls) == 2

    def test_embedding_warnings_counted(self, request):
        config = replace(parse_config(self.TOY), bound_paths=5)
        assert bound_report(config)["monte_carlo"]["embedding_warnings"] == 0
        request.getfixturevalue("hostile_covariance")
        assert bound_report(config)["monte_carlo"]["embedding_warnings"] == 5

    @pytest.mark.parametrize("gamma", [0.0, 1e300])
    def test_coarse_step_skips_monte_carlo(self, monkeypatch, tmp_path, gamma):
        # dt = 0.05 >= w = 0.0203: every path's first left-endpoint term, dt,
        # already reaches w, so the estimate is skipped.  At gamma = 1e300 it
        # used to read 1.0 next to a tail bound of 0.0.
        def no_monte_carlo(*args):
            raise AssertionError("the Monte Carlo ran")

        monkeypatch.setattr(bounds, "bound_monte_carlo", no_monte_carlo)
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text(f"M = 11\nN = 20\nbound_paths = 2\ngamma = {gamma}\n")
        assert main(["bounds", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bounds_report.json").read_text())
        assert 1.0 / 20 >= report["threshold_w"]
        assert report["monte_carlo"] == {
            "paths": 0,
            "empirical_P_tau_star_le_T": None,
            "per_path_ordering_ok": None,
            "embedding_warnings": 0,
        }
        assert list(report) == [
            "inputs", "threshold_w", "nu_T", "M_T", "tail_bound", "tail_bound_valid",
            "chebyshev_independent", "chebyshev_volterra", "gamma_lower_bound", "monte_carlo",
        ]
        if gamma:
            assert report["tail_bound"] == 0.0

    def test_noise_free_report(self, tmp_path):
        # M(T) = 0: tau* is deterministic with nu(T) < w, so P[tau* <= T] = 0
        cfg = tmp_path / "quiet.cfg"
        cfg.write_text("a = 0\nb = 0\nN = 64\nlambda = 1e-5\nbound_paths = 5\n")
        assert main(["bounds", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bounds_report.json").read_text())
        assert report["M_T"] == 0.0 and report["tail_bound_valid"]
        assert report["tail_bound"] == 0.0
        assert report["monte_carlo"]["empirical_P_tau_star_le_T"] == 0.0


def scan_crossing(log_terms, threshold, dt):
    """The bound scan's crossing rule on one array of log terms.

    One `bounds._Crossing` fed over `bounds._segments`, as `_path_crossings`
    feeds each of its sums, stopping at the crossing.
    """
    crossing = bounds._Crossing(threshold, dt)
    for start, stop in bounds._segments(log_terms.size):
        if not crossing.open:
            break
        crossing.feed(start, log_terms[start:stop])
    return crossing.time


class TestFirstCrossing:
    N_TERMS = 2000

    def spike(self, k):
        # negligible terms everywhere except one large term at index k
        x = np.full(self.N_TERMS, -50.0)
        if k is not None:
            x[k] = 10.0
        return x

    @pytest.mark.parametrize("k", [0, 255, 256, 257, 767, 768, 1999, None])
    def test_spike_crossing_index(self, k):
        x = self.spike(k)
        expected = math.inf if k is None else float(k + 1)
        assert scan_crossing(x, math.exp(5.0), 1.0) == expected
        assert scan_crossing(x, math.exp(5.0), 1e-3) == full_crossing(
            x, math.exp(5.0), 1e-3
        )

    @pytest.mark.parametrize("threshold", [math.inf, math.nan])
    def test_non_finite_threshold_never_crosses(self, threshold):
        assert scan_crossing(self.spike(3), threshold, 1.0) == math.inf

    @pytest.mark.parametrize("k", [0, 300, 1000, None])
    def test_minus_infinity_and_nan_entries(self, k):
        # a -inf run carries a -inf running sum across the first prefix boundary
        x = self.spike(None)
        x[:600] = -np.inf
        if k is not None:
            x[k] = 10.0
        assert scan_crossing(x, math.exp(5.0), 1.0) == full_crossing(
            x, math.exp(5.0), 1.0
        )
        x[700] = np.nan  # the running sum is NaN from here on and never crosses
        with np.errstate(invalid="ignore"):
            assert scan_crossing(x, math.exp(5.0), 1.0) == full_crossing(
                x, math.exp(5.0), 1.0
            )
        x[:] = -np.inf  # the running sum stays -inf and never crosses
        assert scan_crossing(x, math.exp(-700.0), 1.0) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        value=st.floats(-20.0, 20.0),
        log_threshold=st.floats(-30.0, 30.0),
    )
    def test_constant_terms(self, n, value, log_threshold):
        x = np.full(n, value)
        thr = math.exp(log_threshold)
        assert scan_crossing(x, thr, 0.01) == full_crossing(x, thr, 0.01)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3000),
        drift=st.floats(-0.05, 0.05),
        log_threshold=st.floats(-10.0, 40.0),
    )
    def test_random_terms(self, seed, n, drift, log_threshold):
        rng = np.random.default_rng(seed)
        x = drift * np.arange(n) + rng.standard_normal(n)
        thr = math.exp(log_threshold)
        assert scan_crossing(x, thr, 1.0 / n) == full_crossing(x, thr, 1.0 / n)


class TestBoundMonteCarloOracle:
    """bound_monte_carlo against the full-accumulate oracle on the same paths."""

    @staticmethod
    def oracle(bp, n_paths, master):
        stars, lows, dt = [], [], bp.params.dt
        for i in range(n_paths):
            N = mixed_process(bp.params, derive_seed(master, i))
            stars.append(tau_star(N, dt, bp))
            lows.append(tau_lower(N, dt, bp, lambda t: eigen_mu(bp, t)))
        stars, lows = np.array(stars), np.array(lows)
        empirical = int(np.sum(stars <= bp.params.T)) / n_paths
        return (empirical, bool(np.all(lows <= stars))), stars, lows

    def check(self, monkeypatch, bp, n_paths, master):
        expected, stars, lows = self.oracle(bp, n_paths, master)
        times = []

        def recording_scan(*args):
            times.append(path_crossings(*args))
            return times[-1]

        path_crossings = bounds._path_crossings
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_path_crossings", recording_scan)
            # one worker, so the crossings are recorded in path order
            patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            result = bound_monte_carlo(bp, n_paths, master)
        assert result == expected
        # the scan returns tau* and tau_* of each path, in path order
        assert np.array_equal([star for star, _ in times], stars)
        assert np.array_equal([low for _, low in times], lows)
        return stars / bp.params.dt, lows / bp.params.dt

    def test_validate_bound_parameters(self, monkeypatch, pair41):
        # the validate check's parameters: every tau_* crosses past the first prefix
        params = ModelParams(lam=1e-5, gamma=0.0, H=0.7, T=1.0, N=1024,
                             a_fn=0.1, b_fn=0.1, k_fn=2.0)
        _, lows = self.check(monkeypatch, eigen_bp(params, pair41), 100, 5_000)
        assert np.all(lows[np.isfinite(lows)] > bounds.CROSSING_PREFIX)

    def test_default_bounds_config_reduced_n(self, monkeypatch, pair41):
        v0_psi1 = inner_product_v0_psi1(0.5 * pair41.psi1, pair41)
        bp = BoundParams(ModelParams(N=1000), pair41.mu1, v0_psi1, 0.5 * float(np.min(pair41.psi1)))
        stars, _ = self.check(monkeypatch, bp, 100, 7)
        assert np.all(np.isfinite(stars))

    def test_crossings_on_both_sides_of_the_prefix(self, monkeypatch, pair41):
        bp = eigen_bp(ModelParams(lam=0.01, N=1024, a_fn=0.1, b_fn=0.1), pair41)
        stars, _ = self.check(monkeypatch, bp, 100, 11)
        assert np.any(stars <= bounds.CROSSING_PREFIX)
        assert np.any(np.isfinite(stars) & (stars > bounds.CROSSING_PREFIX))


class TestMuHelpers:
    def test_semigroup_matches_eigen_closed_form(self, op41, pair41):
        # for v0 = W1 psi1, mu(t) = exp(gamma t - A(t)) inf_x exp(-K(t) A) v0
        w1 = 0.4
        params = ModelParams(lam=1e-4, a_fn=0.1, b_fn=0.1)
        bp = eigen_bp(params, pair41, w1)
        ts = np.linspace(0.0, 1.0, 21)
        infima = np.array(
            [np.min(expm(-0.5 * params.k_fn**2 * t * op41.entries) @ (w1 * pair41.psi1)) for t in ts]
        )
        envelope = np.exp(params.gamma * ts - 0.5 * params.a_fn**2 * ts)
        got = envelope * infima
        want = eigen_mu(bp, ts)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-6


class TestBoundParamsValidation:
    def test_positive_eigenvalue_required(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            make_bp(mu1=0.0)

    def test_positive_initial_infimum_required(self):
        with pytest.raises(ValueError, match=r"mu\(0\)"):
            make_bp(mu0=0.0)


class TestBoundMonotonicity:
    def test_tail_bound_nonincreasing_in_threshold(self):
        bp = make_bp()
        nu1 = nu_of(bp)
        values = [tail_upper_bound(w, bp, nu1) for w in (2 * nu1, 5 * nu1, 50 * nu1)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_gamma_bound_nondecreasing_in_cap(self):
        bp = make_bp(mu1=1.0, gamma=5.0)
        values = [gamma_lower_bound(bp, cap).value for cap in (0.1, 1.0, 10.0, 100.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


def config_bp(text):
    """The BoundParams that `bound_report` forms from a config file's text."""
    config = parse_config(text)
    params = config.params
    pair = principal_eigenpair(assemble_matrix(params.grid, params.alpha))
    v0_psi1 = inner_product_v0_psi1(config.W1 * pair.psi1, pair)
    return BoundParams(params, pair.mu1, v0_psi1, config.W1 * float(np.min(pair.psi1)))


class TestQuadrature:
    """`bounds._quad` against QUADPACK (scipy.integrate.quad) at a tolerance it cannot reach."""

    @pytest.mark.parametrize("config_text", [*(text for text, _ in BOUND_PINS.values()), ""],
                             ids=[*BOUND_PINS, "default"])
    def test_every_bound_integrand_against_quadpack(self, monkeypatch, config_text):
        bp = config_bp(config_text)
        calls = []
        quad_rule = bounds._quad

        def recording_quad(f, a, b, points=()):
            calls.append((f, a, b, quad_rule(f, a, b, points)))
            return calls[-1][-1]

        monkeypatch.setattr(bounds, "_quad", recording_quad)
        nu_of(bp)
        chebyshev_bounds(bp, independent=True)
        chebyshev_bounds(bp, independent=False)
        assert len(calls) == 4  # nu(T), the independent integral and the two Volterra ones
        for f, a, b, value in calls:
            reference = quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=1000)[0]
            assert value == pytest.approx(reference, rel=1e-10, abs=0.0)

    def test_endpoint_singularity_and_break_points(self):
        assert bounds._quad(lambda x: x**-0.5, 0.0, 1.0) == pytest.approx(2.0, rel=1e-8)
        kink = bounds._quad(lambda x: abs(x - 0.3), 0.0, 1.0, points=[0.3, 5.0, 0.3])
        assert kink == pytest.approx(0.045 + 0.245, rel=1e-14)

    def test_non_integrable_integrand_raises(self):
        with pytest.raises(NumericalError, match="did not converge"):
            bounds._quad(lambda x: 1.0 / x, 0.0, 1.0)

    def test_cli_maps_non_convergence_to_exit_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(bounds, "nu_of", lambda bp: bounds._quad(lambda t: 1.0 / t, 0.0, 1.0))
        out = tmp_path / "out"
        assert main(["bounds", "--out", str(out)]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not out.exists()


class TestIncompleteGamma:
    def test_against_scipy_on_a_grid(self):
        # scipy's own relative error grows like eps |ln P| in the far tail: at
        # s = 50, x = 5.2e-4 (P ~ 1e-229) it is 1.3e-13 off a 50-digit value,
        # and `_gammainc` 1e-14; below the normal range both flush to ~0
        worst_normal, worst_tail = 0.0, 0.0
        for s in np.geomspace(0.05, 50.0, 60):
            for x in np.geomspace(1e-6, 200.0, 80):
                value, expected = bounds._gammainc(float(s), float(x)), float(gammainc(s, x))
                if expected < 1e-300:
                    assert value < 1e-300
                    continue
                gap = abs(value - expected) / expected
                if expected >= 1e-100:
                    worst_normal = max(worst_normal, gap)
                else:
                    worst_tail = max(worst_tail, gap)
        assert worst_normal <= 1e-13
        assert worst_tail <= 2e-13

    def test_end_points_and_large_arguments(self):
        assert bounds._gammainc(0.7, 0.0) == 0.0
        assert bounds._gammainc(0.7, math.inf) == 1.0
        # x^s overflows a float: the log form takes over
        for s, x in ((300.0, 290.0), (300.0, 310.0), (2000.0, 2100.0)):
            assert bounds._gammainc(s, x) == pytest.approx(float(gammainc(s, x)), rel=1e-11)


class TestDufresneLaw:
    """At b = 0 the bound Monte Carlo estimates a known probability.

    The scan's integrand is e^(X_t) with X_t = 3 a B_t + c t and
    c = 3 (mu1 k^2 / 2 + a^2 / 2 - gamma).  For c < 0, 1 / I_inf is
    (9 a^2 / 2) times a Gamma(nu, 1) variable, nu = -2 c / (9 a^2) (Dufresne,
    Scand. Actuarial J. 1990), so P[tau* < inf] = P(nu, 2 / (9 a^2 w)).  Each
    horizon is long enough that P[T < tau* < inf] <= 0.005 (`tail`).  The
    constants are written out here, not read from `bounds._drift`.
    """

    CASES = {
        "a=1": dict(gamma=6.0, lam=0.05, a_fn=1.0, k_fn=2.0, T=4.0, N=4000),
        "a=0.8": dict(gamma=4.5, lam=0.02, a_fn=0.8, k_fn=2.0, T=5.0, N=5000),
    }

    @staticmethod
    def law(bp):
        """(c, nu, P[tau* < inf]) of Dufresne's law."""
        p = bp.params
        c = 3.0 * (bp.mu1 * p.k_fn**2 / 2.0 + p.a_fn**2 / 2.0 - p.gamma)
        nu = -2.0 * c / (9.0 * p.a_fn**2)
        return c, nu, float(gammainc(nu, 2.0 / (9.0 * p.a_fn**2 * bp.tau_star_threshold())))

    def tail(self, bp):
        """An upper bound on P[T < tau* < inf] = P[I_T < w <= I_inf].

        I_inf - I_T = e^(X_T) I' with I' an independent copy of I_inf, so for
        any delta > 0 the event needs I_inf - I_T > delta, whose probability is
        E[P(nu, 2 e^(X_T) / (9 a^2 delta))] over X_T ~ Normal(c T, 9 a^2 T), or
        w <= I_inf < w + delta.
        """
        p = bp.params
        c, nu, _ = self.law(bp)
        w, scale = bp.tau_star_threshold(), 9.0 * p.a_fn**2
        z, weights = np.polynomial.hermite_e.hermegauss(80)
        x_T = c * p.T + 3.0 * p.a_fn * math.sqrt(p.T) * z
        deltas = w * np.geomspace(1e-6, 1.0, 200)
        rest = gammainc(nu, 2.0 * np.exp(x_T)[None, :] / (scale * deltas[:, None])) @ weights
        band = gammainc(nu, 2.0 / (scale * w)) - gammainc(nu, 2.0 / (scale * (w + deltas)))
        return float(np.min(rest / weights.sum() + band))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_monte_carlo_matches_the_law(self, pair41, case):
        bp = eigen_bp(ModelParams(b_fn=0.0, **self.CASES[case]), pair41)
        c, nu, law = self.law(bp)
        assert c < 0.0 and 0.5 <= nu <= 2.0
        assert self.tail(bp) <= 0.005
        paths = 2000
        empirical, _ = bound_monte_carlo(bp, paths, 13)
        assert abs(empirical - law) <= 4.0 * math.sqrt(law * (1.0 - law) / paths)

    @pytest.mark.xfail(strict=True, reason=(
        "gamma_lower_bound takes its shape (gamma - 1 - mu1) / 3 and argument "
        "2 Lambda / (9 w) from neither a nor k, and exceeds P[tau* < inf] here; "
        "see docs/decision-log.md, 'What the perpetual-functional bound bounds'"
    ))
    def test_gamma_bound_does_not_exceed_the_law(self, pair41):
        # measured: 0.665 against 0.426 (a = 1) and 0.568 against 0.327 (a = 0.8)
        gaps = {}
        for case, model in self.CASES.items():
            bp = eigen_bp(ModelParams(b_fn=0.0, **model), pair41)
            gaps[case] = gamma_lower_bound(bp, Lambda_cap=1.0).value - self.law(bp)[2]
        assert all(gap <= 0.01 for gap in gaps.values()), gaps
