"""Command-line entry point.

Subcommands: simulate (one realization + trajectory dump), sweep (table
presets and custom grids), bounds (JSON bound report), eigen, validate.
Exit codes: 0 success, 2 configuration error, 3 numerical failure (float
overflow and division by zero included), 4 I/O.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bounds as bounds_mod
from .config import (
    DESK_TIME_STEPS,
    FULL_REALIZATIONS,
    RunConfig,
    emit_table,
    parse_config,
    _validate_run,
    _write_json,
    _write_rows,
)
from .ensemble import sweep
from .errors import ConfigError, NumericalError
from .noise import _embedding_clipped
from .operator import assemble_matrix
from .solver import ModelParams, run_realization
from .spectral import principal_eigenpair
from .validation import run_validation_suite

TABLE_LAMBDAS = (0.01, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)
TABLE_KAPPA2S = (0.05, 0.1, 0.5, 1.0, 1.5, 2.0)
FIG2_AXES = [("alpha", (0.2, 0.5, 0.8)), ("H", (0.55, 0.7, 0.9))]
# desk ensemble size of the nine-point figure-2 grids
FIG2_REALIZATIONS = 1000

# preset -> (output file, the model keys it sets, its sweep axes).  The keys
# are defaults: a value in the config wins, and the swept axes set their own.
# --lambdas replaces custom's axis.  The figure-2 caption and the surrounding
# text disagree on the noise intensity (0.5 vs 0.1); fig2 takes the caption's.
PRESETS = {
    "t1": ("table_t1.csv", dict(gamma=0.0), [("lambda", TABLE_LAMBDAS)]),
    "t2": ("table_t2.csv", dict(gamma=0.1), [("lambda", TABLE_LAMBDAS)]),
    "t3": ("table_t3.csv", dict(lam=0.4, gamma=0.0, kappa1=0.1), [("kappa2", TABLE_KAPPA2S)]),
    "fig2": ("fig2_grid.csv", dict(lam=0.4, gamma=0.0, kappa1=0.5, kappa2=0.5), FIG2_AXES),
    "fig2text": ("fig2text_grid.csv", dict(lam=0.4, gamma=0.0, kappa1=0.1, kappa2=0.1), FIG2_AXES),
    "custom": ("sweep_custom.csv", {}, [("lambda", TABLE_LAMBDAS)]),
}


def _load_config(args: argparse.Namespace, defaults: RunConfig = RunConfig()) -> RunConfig:
    """The run config of `args`; keys and flags left unset take `defaults`."""
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        config = parse_config(text, defaults)
    else:
        config = defaults
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if getattr(args, "realizations", None) is not None:  # a sweep flag
        config = replace(config, n_realizations=args.realizations)
    if args.out is not None:
        config = replace(config, out_dir=Path(args.out))
    _validate_run(config)
    return config


def _output(config: RunConfig, name: str) -> Path:
    """The path of output file `name`, in an output directory made only once a file is due."""
    config.out_dir.mkdir(parents=True, exist_ok=True)
    return config.out_dir / name


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    params = config.params
    result = run_realization(params, config.master_seed)
    dt = params.dt
    if result.failed:
        step = result.steps_taken
        raise NumericalError(f"the realization's state is not finite at step {step} (t = {step * dt})")
    series = result.sup_norm_series.tolist()
    traj_path = _output(config, "trajectory.csv")
    _write_rows(traj_path, ("t", "sup_norm"), ((n * dt, value) for n, value in enumerate(series)))
    meta = {
        "seed": config.master_seed,
        "quenched": result.quenched,
        "T_q": result.T_q,
        "steps_taken": result.steps_taken,
        "failed": result.failed,
        "embedding_warning": _embedding_clipped(params.N, dt, params.H),
    }
    meta_path = _output(config, "realization.json")
    _write_json(meta_path, meta)
    print(f"quenched={result.quenched} T_q={result.T_q} -> {traj_path}, {meta_path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    preset = args.preset
    if args.lambdas is not None and preset != "custom":
        raise ConfigError(f"--lambdas applies to --preset custom only, not {preset}")
    # --threads is accepted for compatibility and has no effect
    if args.threads is not None and args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    name, pinned, axes = PRESETS[preset]
    if args.lambdas is not None:
        axes = [("lambda", args.lambdas)]
    # the desk defaults, or under --full the ModelParams N of 1e4 steps and
    # 1e4 realizations, with the preset's keys; the config and the flags
    # override any of them
    defaults = RunConfig(params=ModelParams(N=DESK_TIME_STEPS))
    if args.full:
        defaults = RunConfig(n_realizations=FULL_REALIZATIONS)
    elif preset in ("fig2", "fig2text"):
        defaults = replace(defaults, n_realizations=FIG2_REALIZATIONS)
    defaults = replace(defaults, params=replace(defaults.params, **pinned))
    config = _load_config(args, defaults)
    result = sweep(config.params, axes, config.n_realizations, config.master_seed)
    out_path = _output(config, name)
    emit_table(result, out_path)
    print(f"wrote {out_path}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = bounds_mod.bound_report(config)
    out_path = _output(config, "bounds_report.json")
    _write_json(out_path, report)
    print(f"wrote {out_path}")
    return 0


def _cmd_eigen(args: argparse.Namespace) -> int:
    config = _load_config(args)
    params = config.params
    op = assemble_matrix(params.grid, params.alpha)
    pair = principal_eigenpair(op)
    print(f"mu1 = {pair.mu1!r}  (residual {pair.residual:.3e})")
    out_path = _output(config, "psi1.csv")
    x = params.grid.interior_points.tolist()
    _write_rows(out_path, ("x", "psi1"), zip(x, pair.psi1.tolist()))
    print(f"wrote {out_path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    results = run_validation_suite()
    failed = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")
        failed += not check.passed
    if failed:
        raise NumericalError(f"{failed} validation check(s) failed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quenchsim",
        description="Quenching simulator and bound calculator for the "
        "noise-driven fractional membrane model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key-value or JSON config file")
        p.add_argument("--seed", type=int, default=None, help="master seed")
        p.add_argument("--out", default=None, help="output directory")

    p_sim = sub.add_parser("simulate", help="run one realization and dump its trajectory")
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and emit a CSV table")
    add_common(p_sweep)
    p_sweep.add_argument("--realizations", type=int, default=None, help="ensemble size")
    p_sweep.add_argument(
        "--threads", type=int, default=None,
        help="compatibility only; no effect (a sweep on a grid of M >= 224 steps on one "
        "worker thread per CPU of the affinity mask, a coarser one on the calling thread)",
    )
    p_sweep.add_argument(
        "--preset",
        choices=tuple(PRESETS),
        default="t1",
        help="experiment preset (custom sweeps lambda)",
    )
    p_sweep.add_argument(
        "--lambdas", type=float, nargs="+", default=None,
        help="lambda grid of --preset custom (an error with any other preset)",
    )
    p_sweep.add_argument(
        "--full", action="store_true",
        help="full-scale defaults: N = 10000 steps and 10000 realizations (explicit settings win)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bounds = sub.add_parser("bounds", help="evaluate analytic bounds, emit JSON report")
    add_common(p_bounds)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_eigen = sub.add_parser("eigen", help="principal eigenpair of the assembled operator")
    add_common(p_eigen)
    p_eigen.set_defaults(func=_cmd_eigen)

    p_val = sub.add_parser("validate", help="run the invariant cross-check suite")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        # a float overflow or division by zero that no check caught first
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
