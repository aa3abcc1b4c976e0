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
from .solver import MODEL_KEYS, ModelParams


__all__ = [
    "RunConfig",
    "parse_config",
    "emit_config",
    "emit_table",
]

# Desk-scale ensemble default; `sweep --full` runs 1e4 realizations of the
# ModelParams default of 1e4 steps.
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
    # analytic-bound inputs
    W1: float = 0.5
    lambda_cap: float = 1.0
    bound_paths: int = 2000


_RUN_KEYS = {
    "realizations": ("n_realizations", int),
    "seed": ("master_seed", int),
    "out": ("out_dir", Path),
    "W1": ("W1", float),
    "lambda_cap": ("lambda_cap", float),
    "bound_paths": ("bound_paths", int),
}

VALID_KEYS = sorted(set(MODEL_KEYS) | set(_RUN_KEYS))


def _coerce(key: str, raw, kind) -> object:
    """`raw` as `kind`, read from its text, so a JSON 1.5 is no integer.

    A JSON null, boolean, list or object is no value of any key: `out`
    would otherwise read it as the directory named by its text.
    """
    try:
        if raw is None or isinstance(raw, (bool, list, dict)):
            raise TypeError("not a number or a string")
        return kind(str(raw))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse value for '{key}': {raw!r}") from exc


def _unique_keys(items) -> dict[str, object]:
    """Collect (key, value) pairs; a repeated key is an error, not an overwrite."""
    pairs: dict[str, object] = {}
    for key, raw in items:
        if key in pairs:
            raise ConfigError(f"config key '{key}' is set more than once")
        pairs[key] = raw
    return pairs


def parse_config(text: str, defaults: RunConfig = RunConfig()) -> RunConfig:
    """Parse a key-value document (or JSON object) into a validated RunConfig.

    Keys the document leaves out take their values from `defaults`.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            pairs = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(pairs, dict):
            raise ConfigError("JSON config must be an object")
    else:
        items = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            items.append([part.strip() for part in body.split("=", 1)])
        pairs = _unique_keys(items)

    model_kwargs: dict[str, object] = {}
    run_kwargs: dict[str, object] = {}
    for key, raw in pairs.items():
        if key in MODEL_KEYS:
            attr, kind = MODEL_KEYS[key]
            model_kwargs[attr] = _coerce(key, raw, kind)
        elif key in _RUN_KEYS:
            attr, kind = _RUN_KEYS[key]
            run_kwargs[attr] = _coerce(key, raw, kind)
        else:
            raise ConfigError(
                f"unknown config key '{key}'; valid keys: {', '.join(VALID_KEYS)}"
            )

    try:
        params = replace(defaults.params, **model_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    config = replace(defaults, params=params, **run_kwargs)
    _validate_run(config)
    return config


def _validate_run(config: RunConfig) -> None:
    for f in fields(config):
        if f.type == "float" and not math.isfinite(getattr(config, f.name)):
            raise ConfigError(f"{f.name} must be finite, got {getattr(config, f.name)!r}")
    if config.n_realizations < 1:
        raise ConfigError("realizations must be >= 1")
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
    for key in sorted(MODEL_KEYS):
        attr = MODEL_KEYS[key][0]
        lines.append(f"{key} = {getattr(config.params, attr)!r}")
    for key in sorted(_RUN_KEYS):
        attr = _RUN_KEYS[key][0]
        value = getattr(config, attr)
        if isinstance(value, Path):
            lines.append(f"{key} = {value}")
        else:
            lines.append(f"{key} = {value!r}")
    return "\n".join(lines) + "\n"


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
