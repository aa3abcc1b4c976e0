"""Run configuration: parsing, defaults, and table output.

Configs are flat key-value text (one `key = value` per line, `#` comments)
or a JSON object with the same keys.  Every key has a documented default;
parse -> emit -> parse is the identity, and `emit_config` refuses an output
path that the flat format cannot carry.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .ensemble import SweepResult
from .errors import ConfigError
from .solver import ModelParams


def _parse_bool(raw) -> bool:
    text = str(raw).lower()
    if text in ("1", "true", "yes"):
        return True
    if text in ("0", "false", "no"):
        return False
    raise ValueError(f"expected true/false, got {raw!r}")


__all__ = [
    "RunConfig",
    "parse_config",
    "emit_config",
    "emit_table",
    "read_table",
]

# Desk-scale ensemble default; the full-scale run (1e4 realizations,
# 1e4 steps) sits behind full_scale.
DESK_REALIZATIONS = 2000
DESK_TIME_STEPS = 2000
FULL_REALIZATIONS = 10_000


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run."""

    params: ModelParams = field(default_factory=ModelParams)
    n_realizations: int = DESK_REALIZATIONS
    master_seed: int = 0
    out_dir: Path = Path(".")
    full_scale: bool = False
    # analytic-bound overrides
    eta1: float = 1.0
    eta2: float = 1.0
    zeta_m: float = 1.0
    zeta_M: float = 1.0
    W1: float = 0.5
    lambda_cap: float = 1.0
    bound_paths: int = 2000


_MODEL_KEYS = {
    "lambda": ("lam", float, "forcing strength lambda >= 0"),
    "gamma": ("gamma", float, "regularizer coefficient gamma >= 0"),
    "alpha": ("alpha", float, "fractional order in (0, 1)"),
    "H": ("H", float, "Hurst index in [1/2, 1)"),
    "kappa1": ("kappa1", float, "Brownian noise intensity >= 0"),
    "kappa2": ("kappa2", float, "fractional noise intensity >= 0"),
    "c": ("c", float, "initial amplitude in [0, 1)"),
    "T": ("T", float, "time horizon > 0"),
    "N": ("N", int, "number of time steps >= 1"),
    "M": ("M", int, "number of space subintervals >= 3"),
    "a": ("a_fn", float, "constant noise coefficient a"),
    "b": ("b_fn", float, "constant noise coefficient b"),
    "k": ("k_fn", float, "constant diffusion coefficient k"),
    "epsilon": ("epsilon", float, "quench detection tolerance > 0"),
}

_RUN_KEYS = {
    "realizations": ("n_realizations", int, "ensemble size >= 1"),
    "seed": ("master_seed", int, "master seed (any integer)"),
    "out": ("out_dir", Path, "output directory"),
    "full_scale": ("full_scale", _parse_bool, "true/false"),
    "eta1": ("eta1", float, "lower growth-envelope constant"),
    "eta2": ("eta2", float, "upper growth-envelope constant"),
    "zeta_m": ("zeta_m", float, "envelope minimum"),
    "zeta_M": ("zeta_M", float, "envelope maximum"),
    "W1": ("W1", float, "eigenfunction initial-data amplitude > 0"),
    "lambda_cap": ("lambda_cap", float, "constant-coefficient cap Lambda >= 0"),
    "bound_paths": ("bound_paths", int, "paths for bound Monte Carlo >= 1"),
}

VALID_KEYS = sorted(set(_MODEL_KEYS) | set(_RUN_KEYS))


def _coerce(key: str, raw, kind) -> object:
    try:
        if kind is int:
            value = int(str(raw))
        elif kind is float:
            value = float(str(raw))
        elif kind is Path:
            value = Path(str(raw))
        else:
            value = kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse value for '{key}': {raw!r}") from exc
    return value


def parse_config(text: str) -> RunConfig:
    """Parse a key-value document (or JSON object) into a validated RunConfig."""
    stripped = text.lstrip()
    pairs: dict[str, object] = {}
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("JSON config must be an object")
        pairs.update(doc)
    else:
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, raw = (part.strip() for part in body.split("=", 1))
            pairs[key] = raw

    model_kwargs: dict[str, object] = {}
    run_kwargs: dict[str, object] = {}
    for key, raw in pairs.items():
        if key in _MODEL_KEYS:
            attr, kind, _ = _MODEL_KEYS[key]
            model_kwargs[attr] = _coerce(key, raw, kind)
        elif key in _RUN_KEYS:
            attr, kind, _ = _RUN_KEYS[key]
            run_kwargs[attr] = _coerce(key, raw, kind)
        else:
            raise ConfigError(
                f"unknown config key '{key}'; valid keys: {', '.join(VALID_KEYS)}"
            )

    try:
        params = ModelParams(**model_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = RunConfig(params=params, **run_kwargs)
    _validate_run(config)
    return config


def _validate_run(config: RunConfig) -> None:
    for f in fields(config):
        if f.type == "float" and not math.isfinite(getattr(config, f.name)):
            raise ConfigError(f"{f.name} must be finite, got {getattr(config, f.name)!r}")
    if config.n_realizations < 1:
        raise ConfigError("realizations must be >= 1")
    if config.eta1 > config.eta2:
        raise ConfigError("eta1 must not exceed eta2")
    if config.zeta_m > config.zeta_M:
        raise ConfigError("zeta_m must not exceed zeta_M")
    if config.W1 <= 0:
        raise ConfigError("W1 must be positive")
    if config.lambda_cap < 0:
        raise ConfigError("lambda_cap must be >= 0")
    if config.bound_paths < 1:
        raise ConfigError("bound_paths must be >= 1")


def emit_config(config: RunConfig) -> str:
    """Serialize a RunConfig back to the flat key-value format.

    Raises ConfigError for an output path the format cannot carry: one
    containing '#' or a line break, or with leading or trailing whitespace.
    """
    out = str(config.out_dir)
    if "#" in out or out.splitlines() != [out] or out != out.strip():
        raise ConfigError(f"output path {out!r} cannot be written as a config value")
    lines = []
    for key in sorted(_MODEL_KEYS):
        attr = _MODEL_KEYS[key][0]
        lines.append(f"{key} = {getattr(config.params, attr)!r}")
    for key in sorted(_RUN_KEYS):
        attr = _RUN_KEYS[key][0]
        value = getattr(config, attr)
        if isinstance(value, Path):
            lines.append(f"{key} = {value}")
        elif isinstance(value, bool):
            lines.append(f"{key} = {str(value).lower()}")
        else:
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


def apply_scale(config: RunConfig) -> RunConfig:
    """Resolve desk/full scale into concrete step and realization counts."""
    if config.full_scale:
        params = replace(config.params, N=10_000)
        return replace(config, params=params, n_realizations=FULL_REALIZATIONS)
    return config


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_table(sweep: SweepResult, path) -> None:
    """Write sweep statistics as CSV mirroring the experiment tables.

    Columns: one per sweep axis, then probability, mean_Tq, var_Tq,
    std_error, failures.  Missing moments render as empty fields.  Output
    is byte-deterministic for identical sweeps.
    """
    header = list(sweep.axis_names) + [
        "probability",
        "mean_Tq",
        "var_Tq",
        "std_error",
        "failures",
    ]
    try:
        with open(path, "w", newline="\n") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for coords, stats in sweep.grid_points():
                writer.writerow(
                    [_format_value(c) for c in coords]
                    + [
                        _format_value(stats.quench_probability),
                        _format_value(stats.mean_Tq),
                        _format_value(stats.var_Tq),
                        _format_value(stats.std_error_p),
                        str(stats.failures),
                    ]
                )
    except OSError as exc:
        raise OSError(f"cannot write table to {path}: {exc}") from exc


def read_table(path) -> list[dict[str, float | None]]:
    """Parse a CSV written by emit_table back into row dictionaries."""
    rows = []
    try:
        with open(path, newline="") as handle:
            for record in csv.DictReader(handle):
                row: dict[str, float | None] = {}
                for key, raw in record.items():
                    row[key] = None if raw == "" else float(raw)
                rows.append(row)
    except OSError as exc:
        raise OSError(f"cannot read table from {path}: {exc}") from exc
    return rows
