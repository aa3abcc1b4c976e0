import math
import threading

import pytest

from quenchsim import ModelParams, estimate, sweep

FAST = dict(N=200, M=21)


class TestEstimate:
    def test_deterministic_decay_never_quenches(self):
        params = ModelParams(lam=0.0, kappa1=0.0, kappa2=0.0, c=0.0, **FAST)
        stats = estimate(params, 50, master_seed=1)
        assert stats.quench_probability == 0.0
        assert stats.mean_Tq is None and stats.var_Tq is None
        assert stats.failures == 0
        assert stats.std_error_p == 0.0

    def test_supercritical_quenches_every_time(self):
        params = ModelParams(lam=1.4, **FAST)
        stats = estimate(params, 100, master_seed=2)
        assert stats.quench_probability == 1.0
        assert 0.0 < stats.mean_Tq < 1.0
        assert stats.var_Tq >= 0.0

    def test_probability_and_se_consistency(self):
        params = ModelParams(lam=0.42, **FAST)
        stats = estimate(params, 400, master_seed=3)
        p = stats.quench_probability
        assert 0.0 <= p <= 1.0
        assert stats.std_error_p == pytest.approx(
            math.sqrt(p * (1 - p) / (stats.n_realizations - stats.failures))
        )
        assert stats.n_quenched == round(p * (stats.n_realizations - stats.failures))

    def test_threads_do_not_change_results(self, monkeypatch):
        # `threads` is unused: stepping stays on the calling thread, so
        # starting a thread fails the test; 600 realizations is three chunks
        params = ModelParams(lam=0.45, **FAST)
        serial = {n: estimate(params, n, master_seed=4, threads=1) for n in (300, 600)}

        def refuse(self):
            raise AssertionError("estimate started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for n, stats in serial.items():
            assert estimate(params, n, master_seed=4, threads=4) == stats

    def test_split_and_pool_reproduces_counts(self):
        params = ModelParams(lam=0.45, **FAST)
        full = estimate(params, 500, master_seed=5)
        first = estimate(params, 250, master_seed=5)
        second = estimate(params, 250, master_seed=5, index_offset=250)
        assert first.n_quenched + second.n_quenched == full.n_quenched
        assert first.failures + second.failures == full.failures

    def test_self_consistency_between_master_seeds(self):
        params = ModelParams(lam=0.42, N=500, M=41)
        a = estimate(params, 2000, master_seed=1001)
        b = estimate(params, 2000, master_seed=2002)
        pooled_se = math.sqrt(a.std_error_p**2 + b.std_error_p**2)
        assert abs(a.quench_probability - b.quench_probability) <= 4.0 * pooled_se


class TestSweeps:
    def test_empty_lambda_list(self):
        params = ModelParams(**FAST)
        result = sweep(params, [("lambda", [])], 10, master_seed=0)
        assert result.stats == ()
        assert list(result.grid_points()) == []

    def test_lambda_sweep_monotone_trend(self):
        params = ModelParams(**FAST)
        result = sweep(params, [("lambda", [0.01, 0.6, 1.4])], 150, master_seed=6)
        probs = [s.quench_probability for s in result.stats]
        ses = [s.std_error_p for s in result.stats]
        for lo, hi, se_lo, se_hi in zip(probs, probs[1:], ses, ses[1:]):
            assert hi >= lo - 2.0 * math.hypot(se_lo, se_hi)

    def test_regularizer_lowers_probability_pointwise(self):
        # common random numbers: identical seeds per realization index
        base = ModelParams(lam=0.5, **FAST)
        from dataclasses import replace

        plain = estimate(base, 300, master_seed=7)
        damped = estimate(replace(base, gamma=0.1), 300, master_seed=7)
        assert damped.n_quenched <= plain.n_quenched

    def test_kappa2_sweep_structure(self):
        params = ModelParams(lam=0.4, kappa1=0.1, **FAST)
        result = sweep(params, [("kappa2", [0.1, 2.0])], 100, master_seed=8)
        assert result.axis_names == ("kappa2",)
        assert result.axis_values == ((0.1, 2.0),)
        assert len(result.stats) == 2

    def test_degenerate_alpha_h_grid_matches_estimate(self):
        params = ModelParams(lam=0.8, **FAST)
        result = sweep(params, [("alpha", [0.6]), ("H", [0.7])], 80, master_seed=9)
        assert len(result.stats) == 1
        direct = estimate(params, 80, master_seed=9)
        assert result.stats[0] == direct

    def test_no_axes_is_one_ensemble(self):
        # the empty product is one grid point: the base parameters themselves
        params = ModelParams(lam=0.8, **FAST)
        result = sweep(params, [], 3, master_seed=4)
        assert result.stats == (estimate(params, 3, master_seed=4),)
        assert list(result.grid_points()) == [((), result.stats[0])]

    def test_alpha_h_grid_row_major(self):
        params = ModelParams(**FAST)
        result = sweep(params, [("alpha", [0.3, 0.6]), ("H", [0.6, 0.8])], 20, master_seed=10)
        coords = [c for c, _ in result.grid_points()]
        assert coords == [(0.3, 0.6), (0.3, 0.8), (0.6, 0.6), (0.6, 0.8)]


class TestFailureAccounting:
    def _result(self, quenched=False, tq=None, failed=False):
        from quenchsim import RealizationResult

        return RealizationResult(
            quenched=quenched, T_q=tq, steps_taken=1, failed=failed
        )

    def test_failures_excluded_from_probability(self):
        from quenchsim import EnsembleStats

        results = [
            self._result(quenched=True, tq=0.5),
            self._result(quenched=False),
            self._result(failed=True),
            self._result(quenched=True, tq=0.7),
        ]
        stats = EnsembleStats.from_results(results)
        assert stats.failures == 1
        assert stats.n_quenched == 2
        assert stats.quench_probability == pytest.approx(2.0 / 3.0)
        assert stats.mean_Tq == pytest.approx(0.6)

    def test_all_failed_raises(self):
        from quenchsim import EnsembleStats, NumericalError

        with pytest.raises(NumericalError, match="all realizations failed"):
            EnsembleStats.from_results([self._result(failed=True)] * 3)

    def test_single_quench_has_no_variance(self):
        from quenchsim import EnsembleStats

        stats = EnsembleStats.from_results(
            [self._result(quenched=True, tq=0.4), self._result(quenched=False)]
        )
        assert stats.mean_Tq == 0.4
        assert stats.var_Tq is None
