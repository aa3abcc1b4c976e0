"""Command-line entry point.

Subcommands: simulate (one realization + trajectory dump), sweep (table
presets and custom grids), bounds (JSON bound report), eigen, validate.
Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import bounds as bounds_mod
from .config import (
    DESK_TIME_STEPS,
    RunConfig,
    apply_scale,
    emit_table,
    parse_config,
    _validate_run,
)
from .ensemble import sweep
from .errors import ConfigError, NumericalError
from .operator import assemble_matrix
from .solver import ModelParams, run_realization
from .spectral import inner_product_v0_psi1, principal_eigenpair
from .validation import run_validation_suite

TABLE_LAMBDAS = (0.01, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)
TABLE_KAPPA2S = (0.05, 0.1, 0.5, 1.0, 1.5, 2.0)
FIG2_ALPHAS = (0.2, 0.5, 0.8)
FIG2_HS = (0.55, 0.7, 0.9)
# The figure-2 caption and the surrounding text disagree on the noise
# intensity (0.5 vs 0.1); both are exposed, the caption value is default.
FIG2_KAPPA_CAPTION = 0.5
FIG2_KAPPA_TEXT = 0.1


def _load_config(args: argparse.Namespace) -> RunConfig:
    if args.config is not None:
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        config = parse_config(text)
    else:
        config = RunConfig()
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    if args.realizations is not None:
        config = replace(config, n_realizations=args.realizations)
    if args.out is not None:
        config = replace(config, out_dir=Path(args.out))
    # --threads is accepted for compatibility and has no effect
    if args.threads is not None and args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    if getattr(args, "full", False):
        config = replace(config, full_scale=True)
    _validate_run(config)
    return config


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = run_realization(config.params, config.master_seed)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    traj_path = config.out_dir / "trajectory.csv"
    dt = config.params.dt
    with open(traj_path, "w", newline="\n") as handle:
        handle.write("t,sup_norm\n")
        for n, value in enumerate(result.sup_norm_series):
            handle.write(f"{n * dt!r},{float(value)!r}\n")
    meta = {
        "seed": config.master_seed,
        "quenched": result.quenched,
        "T_q": result.T_q,
        "steps_taken": result.steps_taken,
        "failed": result.failed,
        "embedding_warning": result.embedding_warning,
    }
    meta_path = config.out_dir / "realization.json"
    meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    print(f"quenched={result.quenched} T_q={result.T_q} -> {traj_path}, {meta_path}")
    return 0


def _preset_params(config: RunConfig) -> ModelParams:
    params = config.params
    if not config.full_scale and params.N == ModelParams().N:
        params = replace(params, N=DESK_TIME_STEPS)
    return params


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = apply_scale(_load_config(args))
    params = _preset_params(config)
    n_r, seed = config.n_realizations, config.master_seed
    preset = args.preset
    if preset in ("t1", "t2"):
        base = replace(params, gamma=0.1 if preset == "t2" else 0.0)
        axes = [("lambda", TABLE_LAMBDAS)]
        name = f"table_{preset}.csv"
    elif preset == "t3":
        base = replace(params, lam=0.4, gamma=0.0, kappa1=0.1)
        axes = [("kappa2", TABLE_KAPPA2S)]
        name = "table_t3.csv"
    elif preset in ("fig2", "fig2text"):
        kap = FIG2_KAPPA_CAPTION if preset == "fig2" else FIG2_KAPPA_TEXT
        base = replace(params, lam=0.4, gamma=0.0, kappa1=kap, kappa2=kap)
        axes = [("alpha", FIG2_ALPHAS), ("H", FIG2_HS)]
        if not config.full_scale:
            n_r = min(n_r, 1000)
        name = f"{preset}_grid.csv"
    elif preset == "custom":
        base = params
        lambdas = args.lambdas or TABLE_LAMBDAS
        # reject a bad grid point before any ensemble runs
        try:
            for lam in lambdas:
                replace(base, lam=lam)
        except ValueError as exc:
            raise ConfigError(f"--lambdas: {exc}") from exc
        axes = [("lambda", lambdas)]
        name = "sweep_custom.csv"
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown preset '{preset}'")
    result = sweep(base, axes, n_r, seed)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.out_dir / name
    emit_table(result, out_path)
    print(f"wrote {out_path}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = _load_config(args)
    params = config.params
    op = assemble_matrix(params.grid, params.alpha)
    pair = principal_eigenpair(op)
    v0 = config.W1 * pair.psi1
    v0_psi1 = inner_product_v0_psi1(v0, pair, params.grid)
    bp = bounds_mod.bound_params_from_model(
        params,
        pair,
        v0_psi1,
        eta1=config.eta1,
        eta2=config.eta2,
        zeta_m=config.zeta_m,
        zeta_M=config.zeta_M,
    )
    T = params.T
    w = bp.tau_star_threshold()
    nu_T = bounds_mod.nu_of(T, bp)
    report: dict = {
        "inputs": {
            "mu1": pair.mu1,
            "v0_psi1": v0_psi1,
            "lambda": params.lam,
            "gamma": params.gamma,
            "H": params.H,
            "eta1": config.eta1,
            "eta2": config.eta2,
            "zeta_m": config.zeta_m,
            "zeta_M": config.zeta_M,
            "W1": config.W1,
            "T": T,
        },
        "threshold_w": w,
        "nu_T": nu_T,
        "M_T": bounds_mod.M_of(T, bp),
        "tail_bound": None,
        "tail_bound_valid": bool(w > nu_T),
        "chebyshev_independent": bounds_mod.chebyshev_bounds(T, bp, independent=True),
        "chebyshev_volterra": bounds_mod.chebyshev_bounds(T, bp, independent=False),
    }
    if report["tail_bound_valid"]:
        report["tail_bound"] = bounds_mod.tail_upper_bound(T, w, bp, nu_T)
    gamma_result = bounds_mod.gamma_lower_bound(bp, config.lambda_cap) if params.lam > 0 else None
    if gamma_result is not None:
        report["gamma_lower_bound"] = {
            "value": gamma_result.value,
            "almost_sure": gamma_result.almost_sure,
        }

    mu_fn = bounds_mod.eigen_mu(bp, config.W1)
    empirical, ordering_ok = bounds_mod.bound_monte_carlo(
        params, bp, mu_fn, config.bound_paths, config.master_seed
    )
    report["monte_carlo"] = {
        "paths": config.bound_paths,
        "empirical_P_tau_star_le_T": empirical,
        "per_path_ordering_ok": ordering_ok,
    }
    config.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.out_dir / "bounds_report.json"
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    return 0


def _cmd_eigen(args: argparse.Namespace) -> int:
    config = _load_config(args)
    params = config.params
    op = assemble_matrix(params.grid, params.alpha)
    pair = principal_eigenpair(op)
    print(f"mu1 = {pair.mu1!r}  (residual {pair.residual:.3e})")
    config.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = config.out_dir / "psi1.csv"
    x = params.grid.interior_points
    with open(out_path, "w", newline="\n") as handle:
        handle.write("x,psi1\n")
        for xi, psi in zip(x, pair.psi1):
            handle.write(f"{float(xi)!r},{float(psi)!r}\n")
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
        p.add_argument("--realizations", type=int, default=None, help="ensemble size")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None, help="compatibility only; no effect")

    p_sim = sub.add_parser("simulate", help="run one realization and dump its trajectory")
    add_common(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and emit a CSV table")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--preset",
        choices=("t1", "t2", "t3", "fig2", "fig2text", "custom"),
        default="t1",
        help="experiment preset (custom sweeps lambda)",
    )
    p_sweep.add_argument(
        "--lambdas", type=float, nargs="+", default=None, help="custom lambda grid"
    )
    p_sweep.add_argument("--full", action="store_true", help="full-scale run")
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
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
