"""In-memory span tracer for the quenchsim package.

The tracer wraps every public function and public method defined in the
package, and installs each wrapper on every name under which the function
can be looked up: `cli`, `solver` and `validation` import functions by name,
so `quenchsim.cli.sweep_lambda` and `quenchsim.ensemble.sweep_lambda` are
both replaced by the same wrapper.  Nothing in the package itself changes;
leaving the `with` block puts every original back.

A span records (name, start, end, parent).  A span opened on a worker
thread with nothing open on that thread takes as parent the innermost span
open on the main thread, which is the `estimate` call that owns the pool.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from time import perf_counter_ns


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "info")

    def __init__(self, name: str, layer: str, parent: "Span | None") -> None:
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = 0
        self.end: int | None = None
        self.info: dict | None = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


def _simulate_batch_info(bound, result) -> dict:
    return {
        "columns": len(bound.arguments["seeds"]),
        "steps": bound.arguments["params"].N,
        "column_steps": sum(r.steps_taken for r in result),
    }


# Functions whose arguments or result the metrics need, keyed by span name.
NOTES = {
    "solver.simulate_batch": _simulate_batch_info,
    "noise.fgn_circulant": lambda bound, result: {"clipped": bool(result.eigenvalue_clipped)},
    "ensemble.estimate": lambda bound, result: {"threads": bound.arguments["threads"]},
}


PACKAGE = "quenchsim"


class Tracer:
    """Context manager that traces quenchsim calls made inside its block."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        layer = name.split(".", 1)[0]
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack and stack is not tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span = Span(name, layer, parent)
            tracer.spans.append(span)
            stack.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter_ns()
                stack.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = note(bound, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _modules(self):
        return [
            module
            for key, module in sorted(sys.modules.items())
            if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]

    def __enter__(self) -> "Tracer":
        wrappers: dict[int, object] = {}
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if not inspect.isgeneratorfunction(obj):
                        layer = module.__name__.rsplit(".", 1)[-1]
                        wrappers[id(obj)] = self._wrap(f"{layer}.{obj.__name__}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(obj, module.__name__.rsplit(".", 1)[-1])
        for module in self._modules():
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return self

    def _wrap_methods(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                wrapped = self._wrap(name, raw)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- analysis ----------------------------------------------------------------


def check_spans(spans: list[Span]) -> list[str]:
    """Structural problems: unclosed spans and children outside their parent."""
    problems = []
    for span in spans:
        if span.end is None:
            problems.append(f"span {span.name} never closed")
        elif span.end < span.start:
            problems.append(f"span {span.name} ends before it starts")
        elif span.parent is not None and span.parent.end is not None and not (
            span.parent.start <= span.start and span.end <= span.parent.end
        ):
            problems.append(f"span {span.name} lies outside its parent {span.parent.name}")
    return problems


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Per span (keyed by id): duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    result = {}
    for span in spans:
        covered = 0
        cursor = span.start
        for child in sorted(children.get(id(span), ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[id(span)] = (span.end - span.start - covered) * 1e-9
    return result


LAYERS = (
    "cli",
    "config",
    "ensemble",
    "solver",
    "noise",
    "seeding",
    "operator",
    "spectral",
    "bounds",
    "validation",
)

BOUNDS_ANALYTIC = (
    "bounds.nu_of",
    "bounds.chebyshev_bounds",
    "bounds.tail_upper_bound",
    "bounds.gamma_lower_bound",
)


def layer_metrics(spans: list[Span], traced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Times per call or per path are inclusive of wrapped children unless the
    name says `loop` or `self`; a metric whose layer did no work in the
    pass reads 0.
    """
    selfs = self_seconds(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def total(name: str) -> float:
        return sum((s.seconds for s in by_name.get(name, ())), 0.0)

    def self_total(name: str) -> float:
        return sum((selfs[id(s)] for s in by_name.get(name, ())), 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    batches = by_name.get("solver.simulate_batch", [])
    column_steps = sum(s.info["column_steps"] for s in batches)
    column_slots = sum(s.info["columns"] * s.info["steps"] for s in batches)
    estimates = by_name.get("ensemble.estimate", [])
    pooled = [s for s in batches if s.parent is not None and s.parent.name == "ensemble.estimate"]
    pool_capacity = sum(s.seconds * s.info["threads"] for s in estimates)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer_self[span.layer] = layer_self.get(span.layer, 0.0) + selfs[id(span)]
    fgn = by_name.get("noise.fgn_circulant", [])

    m: dict[str, tuple[float, str]] = {
        "operator.assemble_ms": (total("operator.assemble_matrix") * 1e3, "ms"),
        "operator.assemble_calls": (calls("operator.assemble_matrix"), "count"),
        "solver.factorize_ms": (total("solver.factorize") * 1e3, "ms"),
        "solver.solve_us_per_col_step": (
            ratio(total("solver.Factorization.solve"), column_steps) * 1e6,
            "us",
        ),
        "solver.loop_us_per_col_step": (
            ratio(self_total("solver.simulate_batch"), column_steps) * 1e6,
            "us",
        ),
        "solver.column_steps": (column_steps, "count"),
        "solver.active_frac": (ratio(column_steps, column_slots), "frac"),
        "solver.batches": (len(batches), "count"),
        "noise.fgn_us_per_path": (
            ratio(total("noise.fgn_circulant"), calls("noise.fgn_circulant")) * 1e6,
            "us",
        ),
        "noise.bm_us_per_path": (
            ratio(total("noise.bm_increments"), calls("noise.bm_increments")) * 1e6,
            "us",
        ),
        "noise.mixed_path_us_per_path": (
            ratio(self_total("noise.mixed_path"), calls("noise.mixed_path")) * 1e6,
            "us",
        ),
        "noise.paths": (len(fgn), "count"),
        "noise.embedding_warnings": (sum(s.info["clipped"] for s in fgn), "count"),
        "noise.share": (ratio(layer_self["noise"], sum(layer_self.values())), "frac"),
        "ensemble.estimate_s": (total("ensemble.estimate"), "s"),
        "ensemble.chunks": (len(pooled), "count"),
        "ensemble.aggregate_us": (total("ensemble.EnsembleStats.from_results") * 1e6, "us"),
        "ensemble.pool_efficiency": (
            ratio(sum(s.seconds for s in pooled), pool_capacity),
            "frac",
        ),
        "spectral.eigenpair_ms": (total("spectral.principal_eigenpair") * 1e3, "ms"),
        "bounds.tau_star_us_per_path": (
            ratio(total("bounds.tau_star_sample"), calls("bounds.tau_star_sample")) * 1e6,
            "us",
        ),
        "bounds.tau_lower_us_per_path": (
            ratio(total("bounds.tau_lower_sample"), calls("bounds.tau_lower_sample")) * 1e6,
            "us",
        ),
        "bounds.analytic_ms": (sum(total(n) for n in BOUNDS_ANALYTIC) * 1e3, "ms"),
        "validation.suite_s": (total("validation.run_validation_suite"), "s"),
        "validation.oracle_s": (total("validation.operator_oracle_deviation"), "s"),
        "config.emit_table_ms": (total("config.emit_table") * 1e3, "ms"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m["trace.accounted_frac"] = (ratio(sum(layer_self.values()), traced_wall_s), "frac")
    return m
