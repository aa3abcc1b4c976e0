#!/usr/bin/env python3
"""quenchsim benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk_t1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest

One run imports the package from `src/`, measures set-up in fresh
interpreters, then repeats the workload's CLI calls in this process until
`--seconds` are used, checks every pass's output and prints its metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates untraced and traced passes and
reports the per-layer metrics.  `--workload all` runs each workload in a
fresh process, one at a time.  Scratch files go to `.bench_work/` at the
root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
STATE = WORK / "state.json"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from spans import Tracer, check_spans, layer_metrics, self_seconds  # noqa: E402
from workloads import DESK_ALPHA, DESK_DT, TOY_DT, TOY_M, WORKLOADS, Context, Outcome, Workload  # noqa: E402

SETUP_PROBE = """
import time
t0 = time.perf_counter()
import quenchsim
from quenchsim.operator import GridSpec, assemble_matrix
op = assemble_matrix(GridSpec({m}), {alpha!r})
if {eigen}:
    from quenchsim.spectral import principal_eigenpair
    principal_eigenpair(op)
else:
    from quenchsim.solver import factorize
    factorize(op, {dt!r})
print(time.perf_counter() - t0)
"""


@dataclass
class Pass:
    traced: bool
    wall_s: float
    cpu_s: float
    outcome: Outcome
    layers: dict = field(default_factory=dict)


# -- environment ---------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def cgroup_cpu_quota() -> str:
    """CPU quota of this cgroup, read-only (v2 cpu.max, else v1 cfs quota)."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        quota, _, period = v2.partition(" ")
        return "unlimited" if quota == "max" else f"{int(quota) / int(period):.2f} cpus"
    for base in ("/sys/fs/cgroup/cpu", "/sys/fs/cgroup/cpu,cpuacct"):
        quota, period = _read(f"{base}/cpu.cfs_quota_us"), _read(f"{base}/cpu.cfs_period_us")
        if quota is not None and period is not None:
            return "unlimited" if int(quota) < 0 else f"{int(quota) / int(period):.2f} cpus"
    return "unknown"


def cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def blas_libraries() -> list[dict]:
    """Each OpenBLAS loaded in this process, with its build config and thread count."""
    paths = sorted(
        {
            line.split()[-1]
            for line in (_read("/proc/self/maps") or "").splitlines()
            if "openblas" in line.lower() and line.split()[-1].startswith("/")
        }
    )
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": Path(path).name}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and "threads" not in entry:
                    threads.restype = ctypes.c_int
                    entry["threads"] = threads()
                if config is not None and "config" not in entry:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
        found.append(entry)
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy

    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": cgroup_cpu_quota(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "blas_thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
        "loadavg_before": list(os.getloadavg()),
    }


# -- measurement ---------------------------------------------------------------


def import_cli():
    """Import quenchsim from this checkout's src/, or exit without a result."""
    if not (SRC / "quenchsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'quenchsim'} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import quenchsim.cli as cli

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's package")
    return cli


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def setup_seconds(w: Workload, toy: bool) -> list[float]:
    """Fresh-interpreter import plus the workload's operator set-up, timed in the child."""
    code = SETUP_PROBE.format(
        m=TOY_M if toy else w.grid_m,
        alpha=DESK_ALPHA,
        eigen=w.setup == "eigenpair",
        dt=TOY_DT if toy else DESK_DT,
    )
    times = []
    for _ in range(2 if toy else SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_pass(cli, w: Workload, ctx: Context, traced: bool) -> Pass:
    """One pass: the workload's CLI calls, timed from the first call to the last return."""
    ctx.out.mkdir(parents=True)
    argvs = w.calls(w, ctx)
    results: list[tuple[int, str]] = []
    tracer = Tracer() if traced else contextlib.nullcontext()
    with tracer:
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        for argv in argvs:
            captured = io.StringIO()
            try:
                with contextlib.redirect_stdout(captured):
                    rc = cli.main(argv)
            except Exception:  # a crash fails the pass; the run goes on
                traceback.print_exc()
                rc = -1
            results.append((rc, captured.getvalue()))
        wall = time.perf_counter() - start
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    outcome = w.check(w, ctx, results)
    p = Pass(traced, wall, cpu, outcome)
    if traced:
        problems = check_spans(tracer.spans)
        if not problems and min(self_seconds(tracer.spans).values(), default=0.0) < 0:
            problems.append("negative self time")
        if problems:
            outcome.problems += [f"trace: {msg}" for msg in problems[:5]]
            outcome.failed = outcome.attempted
        else:
            p.layers = layer_metrics(tracer.spans, wall)
    return p


def measure(cli, w: Workload, ctx: Context, seconds: float, trace: bool) -> list[Pass]:
    """Repeat passes until the next one would overrun `seconds` (at least one of each kind)."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(cli, w, replace(ctx, out=ctx.out / f"pass{len(passes)}"), traced))
        kinds = {p.traced for p in passes}
        complete = kinds == ({False, True} if trace else {False})
        elapsed = time.perf_counter() - start
        if complete and elapsed + passes[-1].wall_s > seconds:
            return passes


def identity_problems(cli, w: Workload, ctx: Context, passes: list[Pass]) -> list[str]:
    """The sweep CSV is byte-identical across passes, runs of one seed and thread counts."""
    digests = {p.outcome.digest for p in passes}
    if w.invariance_threads is None or None in digests:
        return []
    if len(digests) > 1:
        return ["CSV differs between passes of one seed"]
    digest = digests.pop()
    problems = []
    state = {} if ctx.toy else json.loads(_read(str(STATE)) or "{}")
    key = f"{w.name}:{ctx.seed}"
    if state.setdefault(f"digest:{key}", digest) != digest:
        problems.append("CSV differs from an earlier run of the same seed")
    if not state.get(f"threads:{w.name}"):
        threads = w.invariance_threads(ctx.nproc)
        other = run_pass(cli, w, replace(ctx, out=ctx.out / "threads", threads=threads), False)
        if other.outcome.digest != digest:
            problems.append(f"CSV differs from the --threads {threads} run")
        state[f"threads:{w.name}"] = True
    if not ctx.toy:
        STATE.write_text(json.dumps(state, indent=1, sort_keys=True) + "\n")
    return problems


def end_to_end(
    passes: list[Pass], setup: list[float], peak_rss_mb: float, attempted: int, failed: int
) -> dict:
    walls = [p.wall_s for p in passes]
    return {
        "wall_s": (statistics.median(walls), "s"),
        "realizations_per_s": (
            statistics.median(p.outcome.realizations / p.wall_s for p in passes),
            "1/s",
        ),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    if any(not p.layers for p in traced):
        return {}
    names = traced[0].layers
    metrics = {
        name: (statistics.median(p.layers[name][0] for p in traced), unit)
        for name, (_, unit) in names.items()
    }
    overhead = statistics.median(p.wall_s for p in traced) / statistics.median(
        p.wall_s for p in untraced
    )
    metrics["trace.overhead_frac"] = (overhead - 1.0, "frac")
    return metrics


def run_workload(args) -> int:
    cli = import_cli()
    w = WORKLOADS[args.workload]
    env = environment(args.seed)
    nproc = env["nproc"]
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{w.name}-{os.getpid()}"
    ctx = Context(seed=args.seed, out=out, nproc=nproc, toy=args.toy)
    try:
        setup = [] if args.trace else setup_seconds(w, args.toy)
        passes = measure(cli, w, ctx, args.seconds, bool(args.trace))
        # before the untimed invariance pass, which may run at another thread count
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = [msg for p in passes for msg in p.outcome.problems]
        problems += identity_problems(cli, w, ctx, passes)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    attempted = sum(p.outcome.attempted for p in passes)
    failed = attempted if problems else sum(p.outcome.failed for p in passes)
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if args.trace:
        metrics = per_layer(untraced, traced)
    else:
        metrics = end_to_end(untraced, setup, peak_rss_mb, attempted, failed)
    env["loadavg_after"] = list(os.getloadavg())

    print(f"workload {w.name}: {w.why}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced (metrics are medians)")
    print("pass walls (s): " + ", ".join(f"{p.wall_s:.3f}{'T' if p.traced else ''}" for p in passes))
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for msg in problems:
        print(f"check failed: {msg}")
    print("environment: " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


# -- several workloads ---------------------------------------------------------


def run_child(argv: list[str]) -> dict:
    """Run one workload in a fresh interpreter, echo its report, return its result line."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S * 3,
    )
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: {' '.join(argv)} exited {done.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def run_all(args) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        result = run_child(argv + ["--trace", str(args.trace)] + (["--toy"] if args.toy else []))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged), flush=True)
    return 0


def selftest() -> int:
    """Every workload at toy size, both modes: names, units and checks must hold."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for name in WORKLOADS:
            argv = ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            result = run_child(argv + ["--toy"])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected:
                missing = sorted(set(expected.items()) ^ set(printed.items()))
                failures.append(f"{name} trace={trace}: metric names/units differ: {missing}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{name} trace={trace}: checks failed")
    for msg in failures:
        print(f"SELFTEST FAIL: {msg}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (CLI master seed)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy-size inputs (self-test)")
    parser.add_argument("--selftest", action="store_true", help="run every workload at toy size")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
