import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quenchsim import (
    ConfigError,
    ModelParams,
    derive_seed,
    emit_config,
    emit_table,
    parse_config,
    read_table,
    sweep,
)
from quenchsim.cli import main
from quenchsim.config import RunConfig


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        config = parse_config("")
        assert config == RunConfig()
        assert config.params.M == 41
        assert config.params.N == 10_000
        assert config.params.T == 1.0
        assert config.params.alpha == 0.6
        assert config.params.H == 0.7
        assert config.params.kappa1 == 0.1
        assert config.params.kappa2 == 0.1
        assert config.params.c == 0.1
        assert config.params.epsilon == 2.2204e-16

    def test_lambda_row_config(self):
        config = parse_config("lambda = 0.4\n")
        assert config.params.lam == 0.4

    def test_comments_and_blank_lines(self):
        config = parse_config("# header\n\nlambda = 0.8  # trailing\n")
        assert config.params.lam == 0.8

    def test_low_hurst_rejected(self):
        with pytest.raises(ConfigError, match="Hurst"):
            parse_config("H = 0.4\n")

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ConfigError, match="valid keys.*alpha"):
            parse_config("lambda_typo = 1\n")

    def test_bad_value_reported(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("N = lots\n")

    def test_out_of_range_named_constraint(self):
        with pytest.raises(ConfigError, match="c < 1"):
            parse_config("c = 1.5\n")

    def test_json_alternative(self):
        config = parse_config(json.dumps({"lambda": 0.6, "M": 21, "seed": 9}))
        assert config.params.lam == 0.6
        assert config.params.M == 21
        assert config.master_seed == 9

    def test_round_trip_identity(self):
        text = "lambda = 0.4\nM = 21\nseed = 123\n"
        first = parse_config(text)
        second = parse_config(emit_config(first))
        assert first == second
        legal = RunConfig(out_dir=Path("a=b"))
        assert parse_config(emit_config(legal)) == legal
        # '#' starts a comment and the format is one line per key, so these
        # paths would parse back as a different config
        for out in ("runs#1", " pad ", "pad ", "two\nlines"):
            with pytest.raises(ConfigError, match="cannot be written"):
                emit_config(RunConfig(out_dir=Path(out)))

    def test_booleans_accept_both_spellings(self):
        for raw, value in (("true", True), ("YES", True), ("1", True),
                           ("false", False), ("No", False), ("0", False)):
            assert parse_config(f"full_scale = {raw}\n").full_scale is value
        assert parse_config(json.dumps({"full_scale": True})).full_scale is True
        assert parse_config(json.dumps({"full_scale": False})).full_scale is False

    def test_emitted_defaults_round_trip(self):
        config = RunConfig()
        assert parse_config(emit_config(config)) == config


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_distinct_indices_distinct_streams(self):
        assert derive_seed(42, 1) != derive_seed(42, 2)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(0, -1)

    def test_collision_scan_million(self):
        seeds = {derive_seed(0xDEADBEEF, i) for i in range(1_000_000)}
        assert len(seeds) == 1_000_000

    @settings(max_examples=200, deadline=None)
    @given(
        master=st.integers(-(2**63), 2**63 - 1),
        i=st.integers(0, 2**32),
        j=st.integers(0, 2**32),
    )
    def test_injective_within_ensemble(self, master, i, j):
        if i != j:
            assert derive_seed(master, i) != derive_seed(master, j)

    def test_pinned_reference_values(self):
        # frozen: guards the documented hash derivation against drift
        assert derive_seed(0, 0) == 3581551255516441104
        assert derive_seed(1, 0) == 8884786034119216158
        assert derive_seed(0, 1) == 15589435323655735860


class TestEmitTable:
    def test_empty_sweep_writes_header_only(self, tmp_path):
        result = sweep(ModelParams(N=50, M=11), [("lambda", [])], 10, master_seed=0)
        out = tmp_path / "empty.csv"
        emit_table(result, out)
        assert out.read_text() == "lambda,probability,mean_Tq,var_Tq,std_error,failures\n"

    def test_table_shape_and_round_trip(self, tmp_path):
        params = ModelParams(N=100, M=11)
        lambdas = [0.01, 0.4, 1.4]
        result = sweep(params, [("lambda", lambdas)], 40, master_seed=1)
        out = tmp_path / "t.csv"
        emit_table(result, out)
        rows = read_table(out)
        assert len(rows) == 3
        for row, lam, stats in zip(rows, lambdas, result.stats):
            assert row["lambda"] == lam
            assert row["probability"] == stats.quench_probability
            assert row["mean_Tq"] == stats.mean_Tq
            assert row["var_Tq"] == stats.var_Tq
            assert row["std_error"] == stats.std_error_p
            assert row["failures"] == stats.failures

    def test_missing_moments_render_empty(self, tmp_path):
        params = ModelParams(N=50, M=11, lam=0.0, kappa1=0.0, kappa2=0.0, c=0.0)
        result = sweep(params, [("lambda", [0.0])], 5, master_seed=0)
        out = tmp_path / "none.csv"
        emit_table(result, out)
        line = out.read_text().splitlines()[1]
        assert ",,," in line  # empty mean and variance fields


class TestCli:
    def _run(self, *args):
        return main(list(args))

    def test_eigen_subcommand(self, tmp_path, capsys):
        code = self._run("eigen", "--out", str(tmp_path), "--config", str(self._cfg(tmp_path)))
        assert code == 0
        assert (tmp_path / "psi1.csv").exists()
        out = capsys.readouterr().out
        assert "mu1" in out

    def _cfg(self, tmp_path, text="M = 21\nN = 100\n"):
        path = tmp_path / "config.txt"
        path.write_text(text)
        return path

    def test_simulate_subcommand(self, tmp_path):
        cfg = self._cfg(tmp_path, "M = 21\nN = 100\nlambda = 1.4\n")
        code = self._run("simulate", "--config", str(cfg), "--out", str(tmp_path), "--seed", "3")
        assert code == 0
        meta = json.loads((tmp_path / "realization.json").read_text())
        assert meta["seed"] == 3
        assert meta["quenched"] is True
        traj = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "t,sup_norm"
        assert len(traj) >= 2
        t0, v0 = traj[1].split(",")
        assert float(t0) == 0.0 and 0.0 <= float(v0) <= 1.0

    def test_sweep_custom(self, tmp_path):
        cfg = self._cfg(tmp_path)
        code = self._run(
            "sweep", "--preset", "custom", "--lambdas", "0.01", "1.4",
            "--config", str(cfg), "--out", str(tmp_path),
            "--realizations", "20", "--seed", "5",
        )
        assert code == 0
        rows = read_table(tmp_path / "sweep_custom.csv")
        assert [r["lambda"] for r in rows] == [0.01, 1.4]

    def test_bounds_subcommand(self, tmp_path):
        cfg = self._cfg(
            tmp_path,
            "M = 21\nN = 128\nlambda = 1e-05\na = 0.1\nb = 0.1\nk = 2.0\nbound_paths = 50\n",
        )
        code = self._run("bounds", "--config", str(cfg), "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "bounds_report.json").read_text())
        assert report["monte_carlo"]["per_path_ordering_ok"] is True
        assert 0.0 <= report["chebyshev_independent"] <= 1.0
        assert report["tail_bound_valid"] in (True, False)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("H = 0.3\n")
        assert self._run("simulate", "--config", str(bad)) == 2
        coarse = self._cfg(tmp_path, "M = 2\n")
        assert self._run("simulate", "--config", str(coarse), "--out", str(tmp_path)) == 2
        tiny = self._cfg(tmp_path, "M = 11\nN = 100\n")
        for flags in (("--realizations", "0"), ("--realizations", "2", "--threads", "0")):
            code = self._run(
                "sweep", "--preset", "custom", "--lambdas", "0.4",
                "--config", str(tiny), "--out", str(tmp_path), *flags,
            )
            assert code == 2
        # gamma * eta1 > 1 + mu1 is the case in which the cap enters the bound
        cap = self._cfg(tmp_path, "M = 11\nN = 100\ngamma = 10\nlambda_cap = -1\nbound_paths = 5\n")
        assert self._run("bounds", "--config", str(cap), "--out", str(tmp_path)) == 2
        # a bad --lambdas point is rejected before any ensemble runs
        for lambdas in (("-1",), ("0.4", "nan")):
            code = self._run(
                "sweep", "--preset", "custom", "--lambdas", *lambdas,
                "--config", str(tiny), "--out", str(tmp_path),
            )
            assert code == 2
        # non-finite model values; epsilon = nan used to report p = 1 at
        # lambda = 0.01, and kappa1 = inf used to simulate and exit 3
        for line in ("T = nan", "kappa1 = inf", "epsilon = nan", "a = inf", "k = nan",
                     "W1 = nan", "eta1 = nan", "zeta_M = inf", "lambda_cap = nan"):
            bad_value = self._cfg(tmp_path, f"M = 9\nN = 20\n{line}\n")
            for command in ("simulate", "bounds"):
                assert self._run(command, "--config", str(bad_value), "--out", str(tmp_path)) == 2
        # a boolean outside 1/true/yes and 0/false/no used to read as false
        for text in ("M = 9\nN = 20\nfull_scale = ture\n", "M = 9\nN = 20\nfull_scale = 2\n",
                     json.dumps({"M": 9, "N": 20, "full_scale": 2})):
            bad_bool = self._cfg(tmp_path, text)
            assert self._run("simulate", "--config", str(bad_bool), "--out", str(tmp_path)) == 2

    def test_missing_config_file_exit_code(self):
        assert self._run("simulate", "--config", "/nonexistent/path.cfg") == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quenchsim.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "sweep" in proc.stdout


class TestEndToEndDeterminism:
    def test_thread_count_does_not_change_csv_bytes(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("M = 21\nN = 200\n")
        outputs = []
        for threads, sub in (("1", "a"), ("4", "b")):
            out = tmp_path / sub
            code = main(
                ["sweep", "--preset", "custom", "--lambdas", "0.4", "0.8",
                 "--config", str(cfg), "--out", str(out),
                 "--realizations", "60", "--seed", "11", "--threads", threads]
            )
            assert code == 0
            outputs.append((out / "sweep_custom.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestValidateCli:
    def test_validate_passes_and_exit_codes(self, tmp_path, capsys):
        code = main(["validate"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[PASS]") == 4
        assert "[FAIL]" not in out

    def test_validate_rejects_run_flags(self, capsys):
        # validate runs fixed checks, so flags it would ignore are refused
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--seed", "5"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_validate_failure_maps_to_exit_3(self, monkeypatch, capsys):
        from quenchsim import cli
        from quenchsim.validation import CheckResult

        monkeypatch.setattr(
            cli, "run_validation_suite",
            lambda: [CheckResult("doomed", False, "synthetic failure")],
        )
        assert main(["validate"]) == 3
        assert "[FAIL] doomed" in capsys.readouterr().out


class TestPresetTables:
    def test_t1_preset_emits_eight_rows_in_order(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("M = 21\nN = 100\n")
        code = main(
            ["sweep", "--preset", "t1", "--config", str(cfg),
             "--out", str(tmp_path), "--realizations", "10", "--seed", "1"]
        )
        assert code == 0
        rows = read_table(tmp_path / "table_t1.csv")
        assert [r["lambda"] for r in rows] == [0.01, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4]


class TestScaleResolution:
    def test_full_scale_resolves_counts(self):
        from quenchsim.config import apply_scale

        config = parse_config("full_scale = true\n")
        resolved = apply_scale(config)
        assert resolved.params.N == 10_000
        assert resolved.n_realizations == 10_000
        desk = apply_scale(parse_config(""))
        assert desk.n_realizations == 2000

    def test_non_constant_coefficients_rejected(self):
        # coefficients are constants: a callable or a table fails at construction
        for bad in (lambda t: t, ([0.0, 1.0], [1.0, 2.0])):
            with pytest.raises(ValueError, match="a_fn must be a finite number"):
                ModelParams(a_fn=bad)
