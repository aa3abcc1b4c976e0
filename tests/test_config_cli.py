import importlib
import json
import subprocess
import sys
from dataclasses import fields
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
    sweep,
)
from quenchsim.cli import main
from quenchsim.config import RunConfig
from quenchsim.solver import MODEL_KEYS

from helpers import read_table


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

    def test_one_config_key_per_model_field(self):
        declared = {f.name: f.type for f in fields(ModelParams)}
        keys_of = {name: [k for k, (f, _) in MODEL_KEYS.items() if f == name] for name in declared}
        assert all(len(keys) == 1 for keys in keys_of.values()), keys_of
        assert len(MODEL_KEYS) == len(declared)
        for name, kind in MODEL_KEYS.values():
            assert kind.__name__ == declared[name]
        # renaming a field must not rename its config key
        assert set(MODEL_KEYS) == {"lambda", "gamma", "alpha", "H", "kappa1", "kappa2", "c",
                                   "T", "N", "M", "a", "b", "k", "epsilon"}

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
        # no key takes a JSON null, boolean, list or object; out used to read
        # one as a directory name
        for out in (None, True, ["a", "b"], {"a": 1}):
            with pytest.raises(ConfigError, match="cannot parse value for 'out'"):
                parse_config(json.dumps({"out": out}))

    def test_out_of_range_named_constraint(self):
        with pytest.raises(ConfigError, match="c < 1"):
            parse_config("c = 1.5\n")

    def test_repeated_key_rejected(self):
        # the later value used to win without a word
        with pytest.raises(ConfigError, match="'lambda' is set more than once"):
            parse_config("lambda = 0.4\nlambda = 0.8\n")

    def test_repeated_json_key_rejected(self):
        with pytest.raises(ConfigError, match="'lambda' is set more than once"):
            parse_config('{"lambda": 0.4, "lambda": 0.8}')

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
        # every key set away from its default: each field still has a key
        full = parse_config(
            "lambda = 0.3\ngamma = 0.2\nalpha = 0.5\nH = 0.8\nkappa1 = 0.2\n"
            "kappa2 = 0.3\nc = 0.2\nT = 2.0\nN = 500\nM = 21\na = 0.5\nb = 0.4\n"
            "k = 1.5\nepsilon = 1e-12\nrealizations = 7\nseed = 99\nout = runs/x\n"
            "W1 = 0.7\nlambda_cap = 2.0\nbound_paths = 9\n"
        )
        default = RunConfig()
        for obj, base in ((full, default), (full.params, default.params)):
            for f in fields(obj):
                if f.name != "params":
                    assert getattr(obj, f.name) != getattr(base, f.name), f.name
        assert parse_config(emit_config(full)) == full

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

    def test_bounds_report_is_strict_json_at_zero_lambda(self, tmp_path):
        # the infinite threshold w used to be written as the non-JSON token Infinity
        cfg = self._cfg(tmp_path, "M = 11\nN = 128\nlambda = 0\na = 0.1\nb = 0.1\nbound_paths = 20\n")
        assert self._run("bounds", "--config", str(cfg), "--out", str(tmp_path)) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        report = json.loads((tmp_path / "bounds_report.json").read_text(), parse_constant=reject)
        assert report["threshold_w"] is None
        assert report["chebyshev_independent"] == 0.0

    def test_config_error_exit_code(self, tmp_path, monkeypatch):
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
        # only sweep runs an ensemble; simulate, bounds and eigen used to
        # accept --realizations and --threads and ignore them
        for command in ("simulate", "bounds", "eigen"):
            for flag in ("--realizations", "--threads"):
                with pytest.raises(SystemExit) as exc:
                    self._run(command, flag, "2", "--out", str(tmp_path / "ignored"))
                assert exc.value.code == 2
        assert not (tmp_path / "ignored").exists()
        # --lambdas used to be ignored without a word by every preset but custom
        for preset in ("t1", "t3", "fig2"):
            code = self._run(
                "sweep", "--preset", preset, "--lambdas", "0.5",
                "--config", str(tiny), "--out", str(tmp_path / preset),
            )
            assert code == 2
            assert not (tmp_path / preset).exists()
        # gamma > 1 + mu1 is the case in which the cap enters the bound
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
        # lambda = 0.01, and kappa1 = inf used to simulate and exit 3.  A
        # repeated key (N) used to keep its last value, and these keys are
        # gone: the growth-envelope constants (eta1), and full_scale, which
        # only sweep --full read and the other commands ignored.
        for line in ("T = nan", "kappa1 = inf", "epsilon = nan", "a = inf", "k = nan",
                     "W1 = nan", "lambda_cap = nan", "N = 30", "eta1 = 1", "full_scale = true"):
            bad_value = self._cfg(tmp_path, f"M = 9\nN = 20\n{line}\n")
            for command in ("simulate", "sweep", "bounds", "eigen"):
                assert self._run(command, "--config", str(bad_value), "--out", str(tmp_path)) == 2
        # a horizon whose step T / N underflows to 0 used to end in a
        # traceback (exit 1): "dt must be positive" or "math domain error"
        underflow = self._cfg(tmp_path, "M = 11\nN = 10000\nT = 1e-320\n")
        for command in ("simulate", "sweep", "bounds", "eigen"):
            assert self._run(command, "--config", str(underflow), "--out", str(tmp_path)) == 2
        # a JSON null or list for out used to name the output directory by its
        # text, './None' or "./['a', 'b']"
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        for out in (None, ["a", "b"]):
            bad_out = self._cfg(tmp_path, json.dumps({"M": 9, "N": 20, "out": out}))
            assert self._run("simulate", "--config", str(bad_out)) == 2
        assert not any((tmp_path / "cwd").iterdir())

    @pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # exp in the nu(T) integrand overflows at k = 100; it used to escape
        # as an OverflowError traceback (exit 1)
        big_k = self._cfg(tmp_path, "M = 9\nN = 20\nk = 100\nbound_paths = 2\n")
        assert self._run("bounds", "--config", str(big_k), "--out", str(tmp_path)) == 3
        assert "overflows" in capsys.readouterr().err
        # float overflow and division by zero that no check catches also exit
        # 3 and name the exception; each of these used to exit 1
        cases = [
            (["simulate"], "T = 1e300", "OverflowError"),  # the fGN autocovariance
            (["sweep", "--preset", "t1", "--realizations", "2"], "T = 1e300", "OverflowError"),
            (["bounds"], "W1 = 1e300", "OverflowError"),  # the threshold w
            (["bounds"], "W1 = 1e-300", "ZeroDivisionError"),  # w underflows to 0
            (["bounds"], "T = 1e300", "OverflowError"),  # ** in the nu(T) integrand
            (["bounds"], "a = 1e200", "OverflowError"),
            (["bounds"], "b = 1e200", "OverflowError"),
        ]
        for command, line, name in cases:
            cfg = self._cfg(tmp_path, f"M = 9\nN = 20\nbound_paths = 2\n{line}\n")
            out = tmp_path / "out"
            assert self._run(*command, "--config", str(cfg), "--out", str(out)) == 3, line
            assert f"numerical failure: {name}" in capsys.readouterr().err
            assert not out.exists()
        # simulate's one realization fails at gamma = 1e300; it used to exit 0
        # and write "failed": true and inf into trajectory.csv
        cfg = self._cfg(tmp_path, "M = 11\nN = 50\ngamma = 1e300\n")
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = self._run("simulate", "--config", str(cfg), "--seed", "3", "--out", str(out))
        assert code == 3
        assert "state is not finite at step 2 " in capsys.readouterr().err
        assert not out.exists()
        # nu(T) underflows to 0 at gamma = 1e300: the tail bound takes its limit
        # 0 (math domain error, exit 1, before).  N = 50 keeps the paths' left
        # sums over the first step below w, which N = 20 does not
        cfg = self._cfg(tmp_path, "M = 11\nN = 50\nbound_paths = 2\ngamma = 1e300\n")
        assert self._run("bounds", "--config", str(cfg), "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "bounds_report.json").read_text())
        assert report["tail_bound"] == 0.0
        assert report["monte_carlo"]["empirical_P_tau_star_le_T"] == 0.0

    def test_config_errors_name_the_config_key(self, tmp_path, capsys):
        # they used to name the fields lam and a_fn
        for line, message in (("lambda = -1", "lambda must be non-negative"),
                              ("a = nan", "a must be a finite number")):
            cfg = self._cfg(tmp_path, f"M = 9\nN = 20\n{line}\n")
            assert self._run("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 2
            assert f"configuration error: {message}" in capsys.readouterr().err
        cfg = self._cfg(tmp_path, "M = 9\nN = 20\n")
        argv = ["sweep", "--preset", "custom", "--lambdas", "-1", "--config", str(cfg)]
        assert self._run(*argv, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "sweep point rejected: lambda must be non-negative" in err

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        # --out naming a regular file: the output directory cannot be made
        blocked = tmp_path / "blocked"
        blocked.write_text("")
        cfg = self._cfg(tmp_path, "M = 9\nN = 20\nbound_paths = 2\n")
        for command in (["simulate"], ["sweep", "--preset", "custom", "--lambdas", "0.4",
                                       "--realizations", "2"], ["bounds"], ["eigen"]):
            assert self._run(*command, "--config", str(cfg), "--out", str(blocked)) == 4
            assert "I/O error" in capsys.readouterr().err
        assert blocked.read_text() == ""

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

    def test_console_script_declaration(self, capsys):
        # the quenchsim script that pyproject.toml declares, resolved without
        # installing the package
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as handle:
            scripts = tomllib.load(handle)["project"]["scripts"]
        assert scripts == {"quenchsim": "quenchsim.cli:main"}
        module, _, attr = scripts["quenchsim"].partition(":")
        entry = getattr(importlib.import_module(module), attr)
        with pytest.raises(SystemExit) as exit_info:
            entry(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for command in ("simulate", "sweep", "bounds", "eigen", "validate"):
            assert command in out


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


    @pytest.mark.parametrize(
        "preset,keys",
        [
            ("t1", {"gamma": 0.0}),
            ("t2", {"gamma": 0.1}),
            ("t3", {"lam": 0.4, "gamma": 0.0, "kappa1": 0.1}),
            ("fig2", {"lam": 0.4, "gamma": 0.0, "kappa1": 0.5, "kappa2": 0.5}),
            ("fig2text", {"lam": 0.4, "gamma": 0.0, "kappa1": 0.1, "kappa2": 0.1}),
        ],
    )
    def test_preset_keys_yield_to_the_config(self, tmp_path, monkeypatch, preset, keys):
        # a preset sets its keys only where the config leaves them unset
        from quenchsim import cli

        seen = []

        def record(base, axes, n_realizations, master_seed):
            seen.append(base)
            return sweep(base, [("lambda", [])], n_realizations, master_seed)

        monkeypatch.setattr(cli, "sweep", record)
        key_of = {field: key for key, (field, _) in MODEL_KEYS.items()}
        own = {"lam": 0.7, "gamma": 0.3, "kappa1": 0.2, "kappa2": 0.25}
        cfg = tmp_path / "cfg.txt"
        for text, expected in [
            ("", keys),
            ("".join(f"{key_of[f]} = {own[f]}\n" for f in keys), {f: own[f] for f in keys}),
        ]:
            cfg.write_text("M = 9\n" + text)
            argv = ["sweep", "--preset", preset, "--config", str(cfg), "--out", str(tmp_path)]
            assert main(argv) == 0
            assert seen.pop() == ModelParams(M=9, N=2000, **expected)

    def test_config_gamma_reaches_the_t1_table(self, tmp_path):
        # t1 with gamma = 0.3 in the config is the custom sweep of the same
        # config on the t1 lambdas, not the t1 table of gamma = 0
        def table(preset, text):
            cfg = tmp_path / "cfg.txt"
            cfg.write_text("M = 11\nN = 100\n" + text)
            out = tmp_path / f"{preset}-{len(text)}"
            argv = ["sweep", "--preset", preset, "--config", str(cfg), "--out", str(out)]
            assert main(argv + ["--realizations", "50", "--seed", "7"]) == 0
            return next(out.iterdir()).read_bytes()

        gamma = "gamma = 0.3\n"
        assert table("t1", gamma) == table("custom", gamma) != table("t1", "")


class TestScaleResolution:
    @pytest.mark.parametrize(
        "text,flags,steps",
        [
            pytest.param("M = 9\nN = 10000\n", [], 10_000, id="M = 9\nN = 10000\n-10000"),
            pytest.param("M = 9\n", [], 2000, id="M = 9\n-2000"),
            pytest.param("M = 9\nN = 2000\n", ["--full"], 2000, id="full-M = 9\nN = 2000\n-2000"),
        ],
    )
    def test_desk_preset_honours_explicit_n(self, tmp_path, monkeypatch, text, flags, steps):
        # a sweep swaps in its desk (or --full) step count only where the
        # config leaves N unset, even when the config sets N to the default
        from quenchsim import cli

        seen = []

        def record(base, axes, n_realizations, master_seed):
            seen.append(base.N)
            return sweep(base, [("lambda", [])], n_realizations, master_seed)

        monkeypatch.setattr(cli, "sweep", record)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path), *flags]) == 0
        assert seen == [steps]

    @pytest.mark.parametrize(
        "preset,flags,text,expected",
        [
            ("fig2", [], "", 1000),
            ("fig2", ["--realizations", "1500"], "", 1500),
            ("fig2text", [], "realizations = 1500\n", 1500),
            ("fig2text", ["--realizations", "12"], "realizations = 1500\n", 12),
            ("t1", [], "", 2000),
            ("t1", ["--full"], "", 10_000),
            ("t1", ["--full", "--realizations", "50"], "", 50),
        ],
    )
    def test_figure_grid_desk_default(self, tmp_path, monkeypatch, preset, flags, text, expected):
        # the figure-2 grids default to 1000 realizations, and --full to
        # 10 000; an explicit count used to be capped at 1000 for fig2 and
        # ignored under --full
        from quenchsim import cli

        seen = []

        def record(base, axes, n_realizations, master_seed):
            seen.append(n_realizations)
            return sweep(base, [("lambda", [])], n_realizations, master_seed)

        monkeypatch.setattr(cli, "sweep", record)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("M = 9\n" + text)
        argv = ["sweep", "--preset", preset, "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv + flags) == 0
        assert seen == [expected]

    def test_non_constant_coefficients_rejected(self):
        # coefficients are constants: a callable or a table fails at construction
        for bad in (lambda t: t, ([0.0, 1.0], [1.0, 2.0])):
            with pytest.raises(ValueError, match="a must be a finite number"):
                ModelParams(a_fn=bad)
