import hashlib
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import quenchsim
from quenchsim import (
    GridSpec,
    ModelParams,
    NumericalError,
    assemble_matrix,
    derive_seed,
    factorize,
    initial_condition,
    principal_eigenpair,
    run_realization,
)
from quenchsim.operator import OperatorMatrix
from quenchsim.noise import _noise_key, batch_drive
from quenchsim.solver import BLOCK, MACHINE_EPSILON, simulate_batch

from helpers import coarsen
from naive_reference import gaussian_solve, naive_trajectory
from solver_states import ORACLE_PARAMS, naive_deviation, oracle_deviation, record_states


class TestInitialCondition:
    def test_zero_amplitude(self, grid41):
        assert np.all(initial_condition(grid41, 0.0) == 0.0)

    def test_center_value(self):
        g = GridSpec(40)  # even M puts a node at x = 0
        u0 = initial_condition(g, 0.1)
        center = int(np.argmin(np.abs(g.interior_points)))
        assert g.interior_points[center] == 0.0
        assert u0[center] == pytest.approx(0.1, abs=1e-15)

    def test_interior_below_amplitude(self, grid41):
        u0 = initial_condition(grid41, 0.1)
        assert np.all(u0 < 0.1) or np.isclose(np.max(u0), 0.1)
        assert np.all(u0 > 0.0)

    def test_amplitude_range(self, grid41):
        with pytest.raises(ValueError):
            initial_condition(grid41, 1.0)


def mirror_symmetric(rng, n):
    """A random vector equal to its own reflection, exactly."""
    w = rng.standard_normal(n)
    return w + w[::-1]


class TestFactorization:
    # solve takes and returns the first h = ceil(n/2) entries of a
    # mirror-symmetric vector: the kernel steps only that half.
    def test_round_trip(self, op41, rng):
        dt = 1e-3
        f = factorize(op41, dt)
        h = (op41.n + 1) // 2
        stepping = np.eye(op41.n) + dt * op41.entries
        for _ in range(5):
            w = mirror_symmetric(rng, op41.n)
            assert np.max(np.abs(f.solve((stepping @ w)[:h]) - w[:h])) <= 1e-12

    def test_small_dt_is_identity_like(self, op41, rng):
        f = factorize(op41, 1e-14)
        h = (op41.n + 1) // 2
        w = mirror_symmetric(rng, op41.n)
        assert np.max(np.abs(f.solve(w[:h]) - w[:h])) <= 1e-9

    def test_matches_gaussian_elimination(self):
        dt = 0.1
        for M in (5, 6):  # n = M - 1 even, then odd with a centre node
            op = assemble_matrix(GridSpec(M), 0.6)
            f = factorize(op, dt)
            n, h = op.n, (op.n + 1) // 2
            stepping = np.eye(n) + dt * op.entries
            half = np.array([0.3, -0.1, 0.7])[:h]
            rhs = np.concatenate([half, half[: n - h][::-1]])
            assert np.array_equal(rhs, rhs[::-1])
            naive = np.array(gaussian_solve(stepping.tolist(), rhs.tolist()))
            assert np.max(np.abs(f.solve(half) - naive[:h])) <= 1e-12

    def test_block_columns_match_single_solves(self, op41, rng):
        f = factorize(op41, 1e-3)
        h = (op41.n + 1) // 2
        for k in (BLOCK - 1, BLOCK, 2 * BLOCK + 3):
            rhs = rng.standard_normal((h, k))
            wide = np.full((h, k + 5), np.nan)
            f.solve(rhs, out=wide[:, :k])  # a strided view, as the kernel passes
            assert np.array_equal(wide[:, :k], f.solve(rhs))
            for j in (0, k // 2, k - 1):
                assert np.array_equal(wide[:, j], f.solve(rhs[:, j]))

    def test_vector_fills_out(self, op41, rng):
        f = factorize(op41, 1e-3)
        h = (op41.n + 1) // 2
        rhs = rng.standard_normal(h)
        out = np.full(h, np.nan)
        assert np.shares_memory(f.solve(rhs, out=out), out)
        assert np.array_equal(out, f.solve(rhs))

    @pytest.mark.parametrize("M", [11, 12, 41, 321])
    @pytest.mark.parametrize("k", [BLOCK, 2 * BLOCK, 200, 2048])
    def test_stacked_blocks_match_per_block_products(self, M, k, rng):
        # One stacked matmul multiplies every full block.  The reference is a
        # matmul per block; the bits must agree, so numpy must call gemm on
        # each block as it would on the block alone, and the (k // BLOCK, h,
        # BLOCK) views must not be copies.  The input and output are strided
        # like the kernel's pack and the caller's view of a wider array.
        f = factorize(assemble_matrix(GridSpec(M), 0.6), 1e-3)
        inverse = f._inverse
        h = inverse.shape[0]
        buf = rng.standard_normal(h * k + 7)
        rhs = buf[: h * k].reshape(h, k)
        wide = np.full((h, k + 5), np.nan)
        out = wide[:, :k]
        expected = np.empty((h, k))
        full = k - k % BLOCK
        for j in range(0, full, BLOCK):
            np.matmul(inverse, rhs[:, j : j + BLOCK], out=expected[:, j : j + BLOCK])
        if full < k:
            pad = np.zeros((h, BLOCK))
            pad[:, : k - full] = rhs[:, full:]
            expected[:, full:] = (inverse @ pad)[:, : k - full]
        result = f.solve(rhs, out=out)
        assert np.shares_memory(result, wide)
        assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
        assert np.isnan(wide[:, k:]).all()

    def test_positive_dt_required(self, op41):
        with pytest.raises(ValueError):
            factorize(op41, 0.0)

    @pytest.mark.parametrize("M", [11, 12, 41, 161])
    def test_inverse_matches_lapack_cholesky(self, M):
        from scipy.linalg import cho_factor, cho_solve

        op = assemble_matrix(GridSpec(M), 0.6)
        n, h = op.n, (op.n + 1) // 2
        mirror = np.eye(n, h)
        mirror = np.maximum(mirror, mirror[::-1])
        for dt in (1e-4, 5e-4, 0.1):
            expected = cho_solve(cho_factor(np.eye(n) + dt * op.entries), mirror)[:h]
            inverse = factorize(op, dt)._inverse
            assert inverse.flags.c_contiguous
            assert np.max(np.abs(inverse - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_not_positive_definite_raises(self, op41):
        # I - 10 A has negative eigenvalues on even vectors
        flipped = OperatorMatrix(entries=-op41.entries, grid=op41.grid)
        with pytest.raises(NumericalError, match="not positive definite"):
            factorize(flipped, 10.0)

    def test_bits_do_not_depend_on_blas(self, op41):
        # the folded inverse and the eigenpair use no BLAS call, so another
        # OpenBLAS kernel or thread count leaves every bit
        code = (
            "import hashlib, sys; import numpy as np; "
            "from quenchsim import GridSpec, assemble_matrix, factorize, principal_eigenpair; "
            "op = assemble_matrix(GridSpec(161), 0.6); "
            "print(hashlib.sha256(factorize(op, 5e-4)._inverse.tobytes()).hexdigest(), "
            "hashlib.sha256(principal_eigenpair(op).psi1.tobytes()).hexdigest())"
        )
        op = assemble_matrix(GridSpec(161), 0.6)
        expected = " ".join(
            hashlib.sha256(a.tobytes()).hexdigest()
            for a in (factorize(op, 5e-4)._inverse, principal_eigenpair(op).psi1)
        )
        src = str(Path(quenchsim.__file__).parents[1])
        for setting in ({"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_NUM_THREADS": "1"}):
            env = dict(os.environ, PYTHONPATH=src, **setting)
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == expected, setting


class TestStep:
    def test_zero_fixed_point(self):
        params = ModelParams(lam=0.0, kappa1=0.0, kappa2=0.0, c=0.0, N=1, T=1e-3)
        _, states = record_states(params, [0])
        assert np.all(states[0][1] == 0.0)

    def test_positive_source_kick(self):
        params = ModelParams(lam=0.5, kappa1=0.0, kappa2=0.0, c=0.0, N=1, T=1e-3)
        _, states = record_states(params, [0])
        assert np.all(states[0][1] > 0.0)

    def test_matches_naive_single_step(self):
        # gamma > 0 exercises the regularizer term of the source
        params = ModelParams(M=5, N=10, T=1.0, lam=0.3, gamma=0.1, kappa1=0.2, kappa2=0.2)
        _, states = record_states(params, [31])
        naive = naive_trajectory(params, seed=31)
        assert np.max(np.abs(states[0][1] - np.array(naive[1]))) <= 1e-12


class TestRunRealization:
    def test_plain_decay_never_quenches(self):
        params = ModelParams(lam=0.0, gamma=0.0, kappa1=0.0, kappa2=0.0, c=0.0, N=50)
        r = run_realization(params, seed=0)
        assert not r.quenched
        assert r.T_q is None
        assert np.all(r.sup_norm_series == 0.0)
        assert r.steps_taken == 50

    def test_immediate_quench_reports_time_zero(self):
        # even M puts a node at x = 0 where u0 = c; c just above 1 - epsilon
        params = ModelParams(c=0.9999999999999999, M=40, N=10, lam=0.0)
        r = run_realization(params, seed=0)
        assert r.quenched and r.T_q == 0.0

    def test_supercritical_lambda_quenches(self):
        params = ModelParams(lam=1.4, N=500)
        r = run_realization(params, seed=123)
        assert r.quenched
        assert 0.0 < r.T_q < 1.0

    def test_replay_bit_identical(self):
        params = ModelParams(lam=0.9, N=200)
        a = run_realization(params, seed=5)
        b = run_realization(params, seed=5)
        assert a.quenched == b.quenched and a.T_q == b.T_q
        assert np.array_equal(a.sup_norm_series, b.sup_norm_series)

    def test_sup_norm_bounded_while_alive(self):
        params = ModelParams(lam=0.4, N=400)
        r = run_realization(params, seed=9)
        series = r.sup_norm_series[:-1] if r.quenched else r.sup_norm_series
        assert np.all(series <= 1.0)
        assert np.all(series >= 0.0)


class TestComparisonProperties:
    def _trajectory(self, params, seed, n_keep=60):
        _, states = record_states(params, [seed])
        return states[0][: n_keep + 1]

    def test_monotone_in_lambda_under_common_noise(self):
        seed = 17
        lo = self._trajectory(ModelParams(lam=0.3, N=400), seed)
        hi = self._trajectory(ModelParams(lam=0.5, N=400), seed)
        for a, b in zip(lo, hi):
            assert np.all(b >= a - 1e-14)

    def test_regularizer_lowers_state_under_common_noise(self):
        seed = 23
        base = self._trajectory(ModelParams(lam=0.6, gamma=0.0, N=400), seed)
        damped = self._trajectory(ModelParams(lam=0.6, gamma=0.1, N=400), seed)
        for a, b in zip(base, damped):
            assert np.all(b <= a + 1e-14)


class TestNaiveOracleEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_small_instance_trajectories_match(self, seed):
        assert oracle_deviation(ORACLE_PARAMS, seed) <= 1e-12


class TestBatchWidthInvariance:
    # The solve runs on the packed running columns in BLOCK-wide products,
    # so a column's block and position change with the batch width and as
    # columns quench and the pack is compacted; widths either side of BLOCK
    # straddle a block edge.  N is cut at M=321 to bound the run time, the
    # widths still sweep down from 257.
    @pytest.mark.parametrize("M,N", [(41, 2000), (321, 200)])
    def test_column_result_independent_of_batch(self, M, N):
        params = ModelParams(lam=0.4, M=M, N=N)
        f = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
        seeds = [derive_seed(20240901, i) for i in range(257)]
        probes = (0, BLOCK - 1, BLOCK, 128, 255, 256)
        batches = {
            width: record_states(params, seeds[:width], [j for j in probes if j < width], f)
            for width in (BLOCK - 1, BLOCK, BLOCK + 1, 256, 257)
        }
        for width, (results, _) in batches.items():
            assert results == batches[257][0][:width]
        for j in probes:
            (alone,), solo = record_states(params, [seeds[j]], factor=f)
            for width, (results, states) in batches.items():
                if j < width:
                    assert results[j] == alone
                    assert np.array_equal(np.array(states[j]), np.array(solo[0]))


class TestFold:
    # The kernel steps the first ceil((M-1)/2) nodes and unfolds the rest for
    # the observer.  M = 11 has an even node count, M = 12 an odd one whose
    # centre node is its own mirror.
    @pytest.mark.parametrize("M", [11, 12])
    def test_observed_state_is_mirror_symmetric(self, M):
        params = ModelParams(M=M, N=300, lam=1.2, gamma=0.1, kappa1=0.5, kappa2=0.5)
        results, states = record_states(params, [derive_seed(3, i) for i in range(5)])
        assert any(r.quenched for r in results)
        for column in states.values():
            for u in column:
                assert u.shape == (M - 1,)
                assert np.array_equal(u, u[::-1])

    @pytest.mark.parametrize("M", [11, 12])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_naive_oracle(self, M, seed):
        params = ModelParams(M=M, N=40, T=1.0, lam=0.5, gamma=0.1, kappa1=0.3, kappa2=0.3, c=0.2)
        assert oracle_deviation(params, seed) <= 1e-12

    @pytest.mark.parametrize("M", [11, 12])
    def test_quench_times_independent_of_width(self, M):
        params = ModelParams(M=M, N=400, lam=0.4)
        f = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
        seeds = [derive_seed(20241018, i) for i in range(256)]
        wide, _ = record_states(params, seeds, [], f)
        assert 0 < sum(r.quenched for r in wide) < 256
        mid, _ = record_states(params, seeds[:37], [], f)
        assert mid == wide[:37]
        for j in (0, 18, 36, 200, 255):
            (alone,), _ = record_states(params, [seeds[j]], [], f)
            assert alone == wide[j]


class TestMergedLambdas:
    # `lams` steps one batch per lambda in one pack on one drive: column
    # p*len(seeds) + j runs lams[p] on seed j.  With these values the three
    # points' columns stop on interleaved steps, so every compaction mixes
    # points, and the pack falls below BLOCK columns while columns still stop.
    LAMS = (0.3, 0.5, 0.9)

    def case(self, M):
        params = ModelParams(M=M, N=400, kappa1=0.3, kappa2=0.3)
        factor = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
        seeds = [derive_seed(20261018, i) for i in range(40)]
        return params, factor, seeds

    @pytest.mark.parametrize("M", [11, 12])
    def test_equals_each_lambda_alone(self, M):
        params, factor, seeds = self.case(M)
        n = len(seeds)
        drive = batch_drive(params, seeds)
        probes = [0, 17, 39]
        columns = [p * n + j for p in range(len(self.LAMS)) for j in probes]
        merged, states = record_states(params, seeds, columns, factor, lams=self.LAMS)
        assert len(merged) == len(self.LAMS) * n
        for p, lam in enumerate(self.LAMS):
            own = simulate_batch(factor, replace(params, lam=lam), seeds, drive=drive)
            assert merged[p * n : (p + 1) * n] == own
            _, alone = record_states(replace(params, lam=lam), seeds, probes, factor)
            for j in probes:
                assert np.array_equal(np.array(states[p * n + j]), np.array(alone[j]))
        stops = [sorted(r.steps_taken for r in merged[p * n : (p + 1) * n] if r.quenched)
                 for p in range(len(self.LAMS))]
        for lo, hi in zip(stops, stops[1:]):
            assert hi[0] < lo[0] < hi[-1]  # the points' stops interleave
        every = sorted(r.steps_taken for r in merged)
        assert every[-BLOCK] < every[-BLOCK + 1] < params.N

    @pytest.mark.parametrize("M", [11, 12])
    def test_observed_states_match_naive_oracle(self, M):
        params = ModelParams(M=M, N=40, lam=0.5, gamma=0.1, kappa1=0.3, kappa2=0.3, c=0.2)
        lams = (0.2, 2.0, 6.0)
        seeds = [3, 8]
        results, states = record_states(params, seeds, lams=lams)
        assert len({r.steps_taken for r in results}) > 2
        for p, lam in enumerate(lams):
            for j, seed in enumerate(seeds):
                column = states[p * len(seeds) + j]
                assert naive_deviation(column, replace(params, lam=lam), seed) <= 1e-12

    @pytest.mark.parametrize("cut", ["rows", "columns"])
    def test_short_drive_rejected_before_stepping(self, cut):
        params, factor, seeds = self.case(11)
        drive = batch_drive(params, seeds)
        short = {"rows": drive[:-1], "columns": drive[:, :-1]}[cut]
        steps = []
        with pytest.raises(ValueError, match="drive"):
            simulate_batch(factor, params, seeds, observer=lambda n, u, a: steps.append(n),
                           drive=short)
        assert steps == []

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf"), "0.4"])
    def test_invalid_lambda_rejected(self, bad):
        params, factor, seeds = self.case(11)
        with pytest.raises(ValueError, match="lam"):
            simulate_batch(factor, params, seeds[:2], drive=batch_drive(params, seeds[:2]),
                           lams=[0.4, bad])


class CrossingCounter:
    """A Factorization stand-in that counts the columns each solve sends over the threshold."""

    def __init__(self, factor, threshold):
        self.factor, self.threshold, self.crossings = factor, threshold, 0

    def solve(self, rhs, out=None):
        out = self.factor.solve(rhs, out)
        col_max = out.max(axis=0)
        self.crossings += int(np.sum(~(np.isfinite(col_max) & (col_max <= self.threshold))))
        return out


class TestParking:
    # A column that stops is parked at rest in the pack, and the pack is
    # re-laid only when that drops a BLOCK of the solve.  Widths 130 and 257
    # sit just past a BLOCK multiple; the lambdas run up to where a column at
    # rest crosses the threshold again within a few steps, so parked columns
    # re-cross, and are zeroed again, before the pack is re-laid.
    CASES = [(65, 2), (257, 1)]  # (lambdas, seeds): 130 and 257 columns

    def case(self, M, n_lams, n_seeds):
        params = ModelParams(M=M, N=200, kappa1=0.3, kappa2=0.3)
        factor = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
        lams = tuple(np.geomspace(0.3, 300.0, n_lams))
        seeds = [derive_seed(20261019, i) for i in range(n_seeds)]
        return params, factor, lams, seeds

    @pytest.mark.parametrize("M", [11, 12])
    @pytest.mark.parametrize("n_lams,n_seeds", CASES)
    def test_every_column_equals_its_run_alone(self, M, n_lams, n_seeds):
        params, factor, lams, seeds = self.case(M, n_lams, n_seeds)
        results, states = record_states(params, seeds, factor=factor, lams=lams)
        drive = batch_drive(params, seeds)
        final = []  # the observer's live state array, left as the last step wrote it
        simulate_batch(factor, params, seeds, drive=drive, lams=lams,
                       observer=lambda n, u, a: final.append(u) if not final else None)
        counter = CrossingCounter(factor, 1.0 - params.epsilon)
        assert simulate_batch(counter, params, seeds, drive=drive, lams=lams) == results
        recorded = sum(r.steps_taken > 0 and (r.quenched or r.failed) for r in results)
        assert counter.crossings > recorded  # parked columns crossed again
        for p, lam in enumerate(lams):
            for j, seed in enumerate(seeds):
                c = p * n_seeds + j
                (alone,), solo = record_states(params, [seed], factor=factor, lams=(lam,))
                assert results[c] == alone
                mine, theirs = np.array(states[c]), np.array(solo[0])
                assert mine.shape == theirs.shape
                assert np.array_equal(mine.view(np.uint64), theirs.view(np.uint64))
                # u keeps each column's last state, a parked one's where it stopped
                assert np.array_equal(final[0][:, c].view(np.uint64), mine[-1].view(np.uint64))

    @pytest.mark.parametrize("M", [11, 12])
    @pytest.mark.parametrize("n_lams,n_seeds", CASES)
    def test_parked_columns_raise_no_warning(self, M, n_lams, n_seeds):
        params, factor, lams, seeds = self.case(M, n_lams, n_seeds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = simulate_batch(factor, params, seeds, drive=batch_drive(params, seeds),
                                     lams=lams)
        assert all(r.quenched for r in results[-n_seeds:])

    @pytest.mark.parametrize("M", [11, 12])
    def test_failed_column_is_parked_at_rest(self, M):
        # An infinite drive entry makes column 7 fail at step 6.  Left as it
        # was, its state would meet inf - inf on a later step; parked at rest
        # it raises no warning, and the other columns keep their bits.
        params = ModelParams(M=M, N=50, lam=0.1)
        factor = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
        seeds = [derive_seed(20261019, i) for i in range(130)]
        drive = batch_drive(params, seeds)
        clean = simulate_batch(factor, params, seeds, drive=drive)
        drive[5, 7] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = simulate_batch(factor, params, seeds, drive=drive)
        assert results[7].failed and results[7].steps_taken == 6
        assert sum(r.steps_taken < params.N for r in results) == 1  # never re-laid
        assert results[:7] + results[8:] == clean[:7] + clean[8:]


class TestGammaSkip:
    # At gamma = 0 the kernel skips the gamma (1-u) term.  Each observed step
    # must carry the bits of a replica that keeps g - 0.0 * w.  Even M puts a
    # node at x = 0, where c = 1 - 4 eps starts within a few ulps of the
    # threshold 1 - eps; the zero drive steps the same states without noise.
    @pytest.mark.parametrize("M", [12, 40])
    def test_step_equals_explicit_zero_term(self, M):
        eps = MACHINE_EPSILON
        params = ModelParams(M=M, N=20, c=1.0 - 4 * eps, kappa1=0.3, kappa2=0.3)
        factor = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
        lams = (0.0, 1e-3, 0.4)
        seeds = [3, 8]
        h = M // 2  # ceil((M-1)/2) stepped nodes
        checked = 0
        for drive in (batch_drive(params, seeds), np.zeros((params.N, len(seeds)))):
            observed = []
            simulate_batch(factor, params, seeds, drive=drive, lams=lams,
                           observer=lambda n, u, a: observed.append((u.copy(), a.copy())))
            assert 1.0 - 8 * eps <= observed[0][0].max() <= 1.0 - eps
            for n, ((u, _), (u_next, stepped)) in enumerate(zip(observed, observed[1:])):
                for c in np.flatnonzero(stepped):
                    x = u[:h, c]
                    w = 1.0 - x
                    g = lams[c // len(seeds)] / np.square(w)
                    g = g - 0.0 * w
                    b = (x + params.dt * g) + w * drive[n, c % len(seeds)]
                    expected = factor.solve(b)
                    assert np.array_equal(u_next[:h, c].view(np.uint64), expected.view(np.uint64))
                    checked += 1
        assert checked > 2 * len(lams) * len(seeds)


class TestTimeStepConvergence:
    # With kappa1 = kappa2 = 0 the quench time is deterministic and the
    # scheme is first order in dt.  Measured (T_q(N) - T_q(16000)) / dt(N)
    # at M = 41: 1.67, 2.34, 2.69, 2.38 and 1.75 for N = 250 ... 4000, with
    # T_q(16000) = 0.2813125; T_q is a whole number of steps.
    C = 3.0

    @staticmethod
    def quench_time(N):
        params = ModelParams(lam=1.0, kappa1=0.0, kappa2=0.0, M=41, N=N)
        factor = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
        (result,) = simulate_batch(factor, params, [0], drive=batch_drive(params, [0]))
        assert result.quenched
        return result.T_q, params.dt

    def test_first_order_in_dt(self):
        reference, _ = self.quench_time(16000)
        for N in (250, 500, 1000, 2000, 4000):
            t_q, dt = self.quench_time(N)
            assert abs(t_q - reference) <= self.C * dt


class TestCoupledTimeRefinement:
    # Every level steps the same 256 paths: the drive at N_f / r steps sums
    # r consecutive rows of the fine drive (`helpers.coarsen`), so the
    # differences from the finest level carry no sampling noise.  Measured
    # at master seed 20240901, r = 2, 4, 8, 16:
    #   M = 11: mean |T_q - T_q(N_f)| 0.0016, 0.0048, 0.0107, 0.0213;
    #           status mismatches 0, 3, 6, 16
    #   M = 12: mean |T_q - T_q(N_f)| 0.0017, 0.0049, 0.0109, 0.0217;
    #           status mismatches 4, 6, 9, 15
    # Each coarsening multiplies the mean error by about 2 to 3: first order
    # in dt once the error spans several fine steps.
    N_FINE = 2000
    LEVELS = (2, 4, 8, 16)

    @pytest.mark.parametrize("M", [11, 12])
    def test_pathwise_error_grows_with_every_coarsening(self, M):
        fine = ModelParams(lam=0.4, N=self.N_FINE, M=M)
        seeds = [derive_seed(20240901, i) for i in range(256)]
        drive = batch_drive(fine, seeds)
        runs = {}
        for r in (1, *self.LEVELS):
            params = replace(fine, N=fine.N // r)
            factor = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
            runs[r] = simulate_batch(factor, params, seeds, drive=coarsen(drive, r))
        finest = runs[1]
        assert 0 < sum(result.quenched for result in finest) < len(seeds)
        errors, mismatches = [], []
        for r in self.LEVELS:
            pairs = list(zip(runs[r], finest))
            errors.append(
                np.mean([abs(a.T_q - b.T_q) for a, b in pairs if a.quenched and b.quenched])
            )
            mismatches.append(sum(a.quenched != b.quenched for a, b in pairs))
        ratios = [late / early for early, late in zip(errors, errors[1:])]
        assert all(1.5 < ratio < 3.5 for ratio in ratios), errors
        assert errors[-1] < 0.03, errors
        assert mismatches == sorted(mismatches), mismatches


class TestCoupledSpaceRefinement:
    # The drive does not depend on M (`noise._noise_key`), so every grid of a
    # parity steps the same 256 paths, and the differences from the finest
    # grid carry no sampling noise.  Measured at master seed 20240901,
    # N = 2000, against M = 81 and M = 82 (155 of 256 paths quench on each):
    #   M = 11, 21, 41: mean |T_q - T_q(81)| 0.0234, 0.0097, 0.0032;
    #                   status mismatches 15, 5, 2
    #   M = 12, 22, 42: mean |T_q - T_q(82)| 0.0188, 0.0085, 0.0030;
    #                   status mismatches 9, 5, 2
    # Each refinement divides the mean error by 2.2 to 3.0.
    @pytest.mark.parametrize("grids", [(11, 21, 41, 81), (12, 22, 42, 82)])
    def test_pathwise_error_falls_with_every_refinement(self, grids):
        base = ModelParams(lam=0.4, N=2000)
        assert len({_noise_key(replace(base, M=M)) for M in grids}) == 1
        seeds = [derive_seed(20240901, i) for i in range(256)]
        drive = batch_drive(base, seeds)
        runs = []
        for M in grids:
            params = replace(base, M=M)
            factor = factorize(assemble_matrix(params.grid, params.alpha), params.dt)
            runs.append(simulate_batch(factor, params, seeds, drive=drive))
        finest = runs[-1]
        assert 0 < sum(result.quenched for result in finest) < len(seeds)
        errors, mismatches = [], []
        for run in runs[:-1]:
            pairs = list(zip(run, finest))
            errors.append(
                np.mean([abs(a.T_q - b.T_q) for a, b in pairs if a.quenched and b.quenched])
            )
            mismatches.append(sum(a.quenched != b.quenched for a, b in pairs))
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        assert all(ratio > 1.5 for ratio in ratios), errors
        assert errors[0] < 0.03, errors
        assert mismatches == sorted(mismatches, reverse=True), mismatches
