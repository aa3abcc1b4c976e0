import math
import os
import threading
from dataclasses import replace

import pytest

from quenchsim import ModelParams, derive_seed, estimate, sweep
from quenchsim import ConfigError, ensemble, noise, workers
from quenchsim.ensemble import EnsembleStats, _run_chunks
from quenchsim.solver import MODEL_KEYS

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
        # stepping stays on the calling thread, so starting a thread fails the
        # test; 600 realizations is three chunks.  `estimate` takes no threads.
        params = ModelParams(lam=0.45, **FAST)
        serial = {n: estimate(params, n, master_seed=4) for n in (300, 600)}
        with pytest.raises(TypeError, match="threads"):
            estimate(params, 3, master_seed=4, threads=1)

        def refuse(self):
            raise AssertionError("estimate started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        for n, stats in serial.items():
            assert estimate(params, n, master_seed=4) == stats

    def test_split_and_pool_reproduces_counts(self, monkeypatch):
        # 137 is not a multiple of CHUNK_SIZE, so the two ranges chunk their
        # seeds at boundaries the full ensemble does not
        received = []
        from_results = EnsembleStats.from_results

        def recording(results):
            received.append(list(results))
            return from_results(results)

        monkeypatch.setattr(EnsembleStats, "from_results", staticmethod(recording))
        params = ModelParams(lam=0.45, **FAST)
        full = estimate(params, 500, master_seed=5)
        first = estimate(params, 137, master_seed=5)
        second = estimate(params, 363, master_seed=5, index_offset=137)
        assert first.n_quenched + second.n_quenched == full.n_quenched
        assert first.failures + second.failures == full.failures
        # each realization's result, not only the counts, pools exactly
        assert 0 < full.n_quenched < 500
        assert received[1] + received[2] == received[0]

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


class TestSharedNoise:
    # A sweep steps its grid points chunk by chunk on one drive per noise key
    # (N, dt, H, kappa1, kappa2); each point must still equal its own
    # ensemble.  300 realizations is two chunks, the last one partial.
    @pytest.mark.parametrize(
        "axes",
        [
            [("kappa2", [0.05, 0.5, 2.0])],
            [("alpha", [0.3, 0.6]), ("H", [0.55, 0.9])],
            [("lambda", [0.2, 0.45, 1.0])],
            [("N", [100, 200])],
            [("M", [11, 21])],
            [("a", [0.1, 2.0])],
            [("b", [0.1, 2.0])],
            [("k", [0.5, 2.0])],
            [("T", [0.8, 1.0])],
        ],
        ids=["kappa2", "alpha-H", "lambda", "N", "M", "a", "b", "k", "T"],
    )
    def test_sweep_equals_per_point_estimate(self, axes):
        base = ModelParams(lam=0.45, **FAST)
        result = sweep(base, axes, 300, master_seed=11)
        direct = [
            estimate(replace(base, **{MODEL_KEYS[k][0]: v for (k, _), v in zip(axes, point)}),
                     300, master_seed=11)
            for point, _ in result.grid_points()
        ]
        assert list(result.stats) == direct
        assert 0 < sum(s.n_quenched for s in direct) < 300 * len(direct)

    def test_non_integral_value_of_integer_axis_rejected(self):
        with pytest.raises(ConfigError, match="'N' takes integers"):
            sweep(ModelParams(**FAST), [("N", [100, 150.5])], 5, master_seed=0)

    @pytest.mark.parametrize(
        "axes,match",
        [
            ([("lam", [0.4])], "repeated sweep axis 'lam'"),
            ([("lambda", [0.4]), ("eta1", [])], "repeated sweep axis 'eta1'"),
            ([("lambda", [0.2]), ("H", [0.7]), ("lambda", [5.0])], "repeated sweep axis 'lambda'"),
            # The case id names the ModelParams field; the message names its config key.
            pytest.param(
                [("lambda", [0.4, -1.0])],
                "lambda must be non-negative",
                id="axes3-lam must be non-negative",
            ),
            ([("alpha", [0.5]), ("H", [0.7, 0.3])], "Hurst index"),
            ([("M", [11, 2])], "M must be >= 3"),
            ([("N", [100, float("nan")])], "'N'"),
        ],
    )
    def test_bad_axis_rejected_before_any_ensemble(self, monkeypatch, axes, match):
        def never(*args, **kwargs):
            raise AssertionError("an ensemble ran")

        monkeypatch.setattr(ensemble, "_run_chunks", never)
        monkeypatch.setattr(ensemble, "factorize", never)
        with pytest.raises(ConfigError, match=match):
            sweep(ModelParams(**FAST), axes, 5, master_seed=0)

    def test_points_with_different_step_counts(self):
        grid = [ModelParams(lam=0.45, M=21, N=n_steps) for n_steps in (200, 100, 200)]
        stats = _run_chunks(grid, 300, master_seed=12)
        assert stats == [estimate(params, 300, master_seed=12) for params in grid]

    @pytest.mark.parametrize(
        "axes,draws_per_realization",
        [([("lambda", [0.2, 0.45, 1.0])], 1), ([("H", [0.6, 0.8])], 2)],
    )
    def test_noise_drawn_once_per_noise_key(self, monkeypatch, axes, draws_per_realization):
        # `noise._fgn_rows` draws the fGN of a block of seeds, one row each
        calls = []
        original = noise._fgn_rows

        def counted(seeds, workspace):
            calls.extend(seeds)
            return original(seeds, workspace)

        monkeypatch.setattr(noise, "_fgn_rows", counted)
        sweep(ModelParams(**FAST), axes, 300, master_seed=13)
        assert len(calls) == 300 * draws_per_realization

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = []
        original = ensemble.simulate_batch

        def counted(factor, params, seeds, **kwargs):
            calls.append(kwargs.get("lams"))
            return original(factor, params, seeds, **kwargs)

        monkeypatch.setattr(ensemble, "simulate_batch", counted)
        return calls

    @pytest.mark.parametrize(
        "axes,calls_per_chunk",
        [([("lambda", [0.2, 0.45, 1.0])], 1), ([("alpha", [0.3, 0.6]), ("H", [0.6, 0.8])], 4)],
    )
    def test_lambda_points_step_in_one_call(self, calls, axes, calls_per_chunk):
        sweep(ModelParams(**FAST), axes, 300, master_seed=15)
        assert len(calls) == 2 * calls_per_chunk

    def test_only_lambda_may_differ_within_a_call(self, calls, monkeypatch):
        # gamma differs, or alpha and so the factorization: separate calls.
        # One operator, assembled and factorized, per (M, alpha, dt).
        factored = []
        original = ensemble.assemble_matrix

        def counted(grid, alpha):
            factored.append(alpha)
            return original(grid, alpha)

        monkeypatch.setattr(ensemble, "assemble_matrix", counted)
        base = ModelParams(lam=0.45, **FAST)
        grid = [
            base,
            replace(base, lam=0.8),
            replace(base, gamma=0.1),
            replace(base, lam=0.8, alpha=0.5),
            replace(base, lam=1.0),
        ]
        stats = _run_chunks(grid, 300, master_seed=16)
        assert calls == 2 * [[0.45, 0.8, 1.0], [0.45], [0.8]]
        assert factored == [0.6, 0.5]
        assert stats == [estimate(params, 300, master_seed=16) for params in grid]

    def test_clipped_embedding_sweep_matches_estimate(self, hostile_covariance):
        # every fGN path of a non-embeddable covariance is clipped; the merged
        # sweep still gives each point its own estimate
        base = ModelParams(lam=0.45, **FAST)
        result = sweep(base, [("lambda", [0.2, 0.45, 1.0])], 300, master_seed=17)
        for (lam,), stats in result.grid_points():
            assert stats == estimate(replace(base, lam=lam), 300, master_seed=17)


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


@pytest.mark.skipif(not workers._openblas(), reason="no OpenBLAS loaded: chunks never split")
class TestSplitChunks:
    # M = 321 has a half state of 160 nodes, above the cut; 300 realizations
    # are one full chunk and one partial one.  Patching the affinity mask sets
    # the worker count; the threads run wherever the host puts them.
    FINE = dict(N=50, M=321)

    @pytest.fixture()
    def stepped_on(self, monkeypatch):
        """(M, thread id, first seed) of every `simulate_batch` call, which calls through."""
        calls = []
        original = ensemble.simulate_batch

        def recording(factor, params, seeds, **kwargs):
            calls.append((params.M, threading.get_ident(), seeds[0]))
            return original(factor, params, seeds, **kwargs)

        monkeypatch.setattr(ensemble, "simulate_batch", recording)
        return calls

    @staticmethod
    def cpus(monkeypatch, n):
        affinity = set(range(n))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)

    def test_split_reproduces_every_result(self, monkeypatch, stepped_on):
        assert ModelParams(**self.FINE).M // 2 >= ensemble.SPLIT_HALF_NODES
        received = []
        from_results = EnsembleStats.from_results

        def recording(results):
            received.append(list(results))
            return from_results(results)

        monkeypatch.setattr(EnsembleStats, "from_results", staticmethod(recording))
        base = ModelParams(lam=0.45, **self.FINE)
        runs = []
        for n in (1, 2, 3):
            self.cpus(monkeypatch, n)
            received.clear()
            stepped_on.clear()
            stats = (
                estimate(base, 300, master_seed=21),
                sweep(base, [("lambda", [0.3, 0.6])], 300, master_seed=21).stats,
            )
            runs.append((stats, [list(r) for r in received]))
            threads = {thread for _, thread, _ in stepped_on}
            # one CPU steps inline; otherwise the caller only waits on the workers
            assert (threads == {threading.get_ident()}) == (n == 1)
            # one call per range of each chunk, in estimate and in the sweep:
            # n even ranges of the full chunk and of the partial one of 44
            starts = [256 * j // n for j in range(n)] + [256 + 44 * j // n for j in range(n)]
            firsts = sorted(first for _, _, first in stepped_on)
            assert firsts == sorted(2 * [derive_seed(21, i) for i in starts])
        assert runs[0] == runs[1] == runs[2]
        assert 0 < runs[0][0][0].n_quenched < 300

    def test_m_axis_across_the_cut_equals_each_estimate(self, monkeypatch, stepped_on):
        self.cpus(monkeypatch, 2)
        base = ModelParams(lam=0.45, **self.FINE)
        result = sweep(base, [("M", [41, 321])], 300, master_seed=22)
        # one point above the cut puts every point of the call on the workers
        caller = threading.get_ident()
        for M in (41, 321):
            threads = {thread for grid_m, thread, _ in stepped_on if grid_m == M}
            assert threads and caller not in threads
        direct = [estimate(replace(base, M=M), 300, master_seed=22) for M in (41, 321)]
        assert list(result.stats) == direct

    @staticmethod
    def thread_counts():
        return [get() for get, _ in workers._openblas()]

    def test_worker_exception_leaves_sweep(self, monkeypatch):
        self.cpus(monkeypatch, 2)
        before_counts = self.thread_counts()
        error = RuntimeError("step failed")
        failing = derive_seed(23, 128)  # the second range of the first chunk, 128..255
        original = ensemble.simulate_batch
        pinned = []

        def failing_step(factor, params, seeds, **kwargs):
            pinned.append(self.thread_counts())
            if seeds[0] == failing:
                raise error
            return original(factor, params, seeds, **kwargs)

        monkeypatch.setattr(ensemble, "simulate_batch", failing_step)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError) as raised:
            sweep(ModelParams(**self.FINE), [("lambda", [0.4])], 300, master_seed=23)
        assert raised.value is error
        assert [t for t in threading.enumerate() if t not in before] == []
        assert self.thread_counts() == before_counts
        # every BLAS ran on one thread while the workers stepped
        assert pinned and all(counts == [1] * len(before_counts) for counts in pinned)

    def test_blas_thread_counts_restored_after_sweep(self, monkeypatch):
        self.cpus(monkeypatch, 2)
        before = self.thread_counts()
        sweep(ModelParams(**self.FINE), [("lambda", [0.4])], 300, master_seed=24)
        assert self.thread_counts() == before
