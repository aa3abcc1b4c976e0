"""The benchmark's workloads: the CLI calls each one makes and its output checks.

Every workload drives `quenchsim.cli.main` with argument lists built from
the workload seed.  `toy=True` shrinks the grid, the step count and the
bound paths so that the self-test runs every workload in seconds; the
structural checks still apply, the statistical ones do not.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TABLE_LAMBDAS = (0.01, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4)
REALIZATIONS = 512  # two chunks of 256 per ensemble
DESK_ALPHA = 0.6
DESK_DT = 1.0 / 2000  # desk-scale sweeps run N = 2000 steps on T = 1
BOUND_PATHS = 2000  # the CLI default bound_paths
TOY_M = 9
TOY_DT = 1.0 / 50
TOY_CONFIG = f"M = {TOY_M}\nN = 50\n"
TOY_BOUND_CONFIG = f"M = {TOY_M}\nN = 200\nbound_paths = 20\n"
P04_REFERENCE = 0.60  # desk-scale p(0.4), measured over 8192 realizations


@dataclass
class Outcome:
    """What one pass of a workload attempted, how much failed, and why."""

    attempted: int
    failed: int
    problems: list[str]
    realizations: int  # realizations (sweeps) or bound paths (analysis) simulated
    digest: str | None = None  # sha256 of the sweep CSV, for the identity checks


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid_m: int  # grid of the set-up probe
    setup: str  # "factorize" (sweeps) or "eigenpair" (analysis)
    calls: Callable[["Workload", "Context"], list[list[str]]]
    check: Callable[["Workload", "Context", list[tuple[int, str]]], Outcome]
    # threads of the comparison run in the thread-invariance check (None: no check)
    invariance_threads: Callable[[int], int] | None = None


@dataclass(frozen=True)
class Context:
    seed: int
    out: Path
    nproc: int
    toy: bool
    threads: int | None = None  # overrides the workload's own thread count


def _config(ctx: Context, name: str, text: str) -> str:
    path = ctx.out / name
    path.write_text(text)
    return str(path)


def _desk_calls(w: Workload, ctx: Context) -> list[list[str]]:
    argv = ["sweep", "--preset", "t1", "--realizations", str(REALIZATIONS)]
    argv += ["--threads", str(ctx.threads or 1), "--seed", str(ctx.seed), "--out", str(ctx.out)]
    if ctx.toy:
        argv += ["--config", _config(ctx, "toy.cfg", TOY_CONFIG)]
    return [argv]


def _fine_calls(w: Workload, ctx: Context) -> list[list[str]]:
    text = TOY_CONFIG if ctx.toy else f"M = {w.grid_m}\n"
    argv = ["sweep", "--preset", "custom", "--config", _config(ctx, "fine.cfg", text)]
    argv += ["--lambdas", "0.4", "--realizations", str(REALIZATIONS)]
    argv += ["--threads", str(ctx.threads or ctx.nproc), "--seed", str(ctx.seed)]
    return [argv + ["--out", str(ctx.out)]]


def _analysis_calls(w: Workload, ctx: Context) -> list[list[str]]:
    common = ["--seed", str(ctx.seed), "--out", str(ctx.out)]
    if ctx.toy:
        common += ["--config", _config(ctx, "toy.cfg", TOY_BOUND_CONFIG)]
    return [["simulate", *common], ["eigen", *common], ["bounds", *common], ["validate"]]


def _read_rows(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        return list(reader.fieldnames or []), list(reader)


def _check_sweep(path: Path, lambdas, results, toy: bool, table: bool) -> Outcome:
    attempted = REALIZATIONS * len(lambdas)
    problems = [f"cli exited {rc}" for rc, _ in results if rc != 0]
    if problems or not path.exists():
        return Outcome(attempted, attempted, problems or [f"{path.name} missing"], attempted)
    header, rows = _read_rows(path)
    expected = ["lambda", "probability", "mean_Tq", "var_Tq", "std_error", "failures"]
    if header != expected:
        problems.append(f"header {header} != {expected}")
        return Outcome(attempted, attempted, problems, attempted)
    if [float(r["lambda"]) for r in rows] != list(lambdas):
        problems.append("lambda column does not match the requested grid")
        return Outcome(attempted, attempted, problems, attempted)
    failed = sum(int(r["failures"]) for r in rows)
    if failed:
        problems.append(f"{failed} failed realizations")
    p = {float(r["lambda"]): float(r["probability"]) for r in rows}
    if any(not 0.0 <= v <= 1.0 for v in p.values()):
        problems.append("probability outside [0, 1]")
    if table and not toy:
        values = [p[lam] for lam in lambdas]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"p(lambda) decreases: {values}")
        if p[0.01] != 0.0:
            problems.append(f"p(0.01) = {p[0.01]} != 0")
        if any(p[lam] != 1.0 for lam in lambdas if lam >= 0.8):
            problems.append("p(lambda >= 0.8) != 1")
        se = float(next(r["std_error"] for r in rows if float(r["lambda"]) == 0.4))
        if abs(p[0.4] - P04_REFERENCE) > 3.0 * se:
            problems.append(f"p(0.4) = {p[0.4]} not within 3 x {se:.4f} of {P04_REFERENCE}")
    if problems:
        failed = attempted
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return Outcome(attempted, failed, problems, attempted, digest)


def _check_desk(w: Workload, ctx: Context, results) -> Outcome:
    return _check_sweep(ctx.out / "table_t1.csv", TABLE_LAMBDAS, results, ctx.toy, table=True)


def _check_fine(w: Workload, ctx: Context, results) -> Outcome:
    return _check_sweep(ctx.out / "sweep_custom.csv", (0.4,), results, ctx.toy, table=False)


def _check_analysis(w: Workload, ctx: Context, results) -> Outcome:
    paths = 20 if ctx.toy else BOUND_PATHS
    (sim_rc, _), (eig_rc, eig_out), (bnd_rc, _), (val_rc, val_out) = results
    statuses = re.findall(r"^\[(\w+)\] ", val_out, flags=re.M)
    checks = max(len(statuses), 4)
    attempted = paths + checks
    failed = checks - statuses.count("PASS")
    problems = [f"{n} validate check(s) not PASS" for n in [failed] if n]
    for label, rc in (("simulate", sim_rc), ("eigen", eig_rc), ("bounds", bnd_rc), ("validate", val_rc)):
        if rc != 0:
            problems.append(f"{label} exited {rc}")
    try:
        realization = json.loads((ctx.out / "realization.json").read_text())
        if realization["failed"]:
            problems.append("the simulate realization failed")
        report = json.loads((ctx.out / "bounds_report.json").read_text())
        mc = report["monte_carlo"]
        if mc["paths"] != paths:
            problems.append(f"bound report ran {mc['paths']} paths, expected {paths}")
        if not mc["per_path_ordering_ok"]:
            problems.append("bound report: per-path ordering violated")
        empirical = mc["empirical_P_tau_star_le_T"]
        for key in ("chebyshev_independent", "chebyshev_volterra"):
            if not empirical <= report[key]:
                problems.append(f"empirical P[tau* <= T] = {empirical} > {key} = {report[key]}")
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    match = re.search(r"residual ([0-9.eE+-]+)\)", eig_out)
    if match is None or not float(match.group(1)) < 1e-10:
        problems.append(f"eigen residual not below 1e-10: {match and match.group(1)}")
    if problems:
        failed = attempted
    return Outcome(attempted, failed, problems, paths)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_t1",
            why="paper table t1 at desk scale (M=41, N=2000, 8 lambdas x 512); "
            "Python-overhead-bound stepping, early quenching shrinks the active set, "
            "single thread",
            grid_m=41,
            setup="factorize",
            calls=_desk_calls,
            check=_check_desk,
            invariance_threads=lambda nproc: max(nproc, 2),
        ),
        Workload(
            name="fine_grid",
            why="M=321, N=2000, lambda=0.4, 512 realizations on nproc threads; 320x320 "
            "stepping (solve and loop) dominates; the only workload that uses the ensemble pool",
            grid_m=321,
            setup="factorize",
            calls=_fine_calls,
            check=_check_fine,
            invariance_threads=lambda nproc: 1,
        ),
        Workload(
            name="analysis",
            why="simulate, eigen, bounds (2000 paths, N=10000) and validate in one "
            "process; load is on noise, bounds, spectral and validation, not the solver",
            grid_m=41,
            setup="eigenpair",
            calls=_analysis_calls,
            check=_check_analysis,
        ),
    )
}
