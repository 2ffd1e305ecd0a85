"""Run configuration: one JSON document describing one pipeline run.

A config names a catalog surface and optionally overrides the pole, the
radius schedule and the grid; the verdict tolerances
(`verdicts.TOLERANCES`) and the Euler-bound weights
(`functionals.EULER_ALPHAS`) are fixed.  Validation is strict:
unknown keys anywhere in the document are errors, so a typo cannot
silently fall back to a default and make a report look like it came
from a different run than it did.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .pipeline import DEFAULT_GRID

_SPACINGS = ("geometric", "linear")

_TOP_KEYS = {"surface", "params", "pole", "schedule", "grid", "output"}
_SCHEDULE_KEYS = {"t_min", "t_max", "count", "spacing"}


def _reject_unknown(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(
            f"unknown {where} key(s) {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")


@dataclass
class RunConfig:
    """Validated run description; `None` fields use catalog defaults."""

    surface: str
    params: dict = field(default_factory=dict)
    pole_uv: tuple | None = None
    t_min: float | None = None
    t_max: float | None = None
    count: int | None = None
    spacing: str = "geometric"
    grid: tuple = DEFAULT_GRID
    output: str | None = None

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        _reject_unknown(doc, _TOP_KEYS, "config")
        if "surface" not in doc or not isinstance(doc["surface"], str):
            raise ConfigError("config needs a string 'surface' field")

        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("'params' must be an object")

        pole_uv = _parse_pole(doc.get("pole", "default"))
        t_min, t_max, count, spacing = _parse_schedule(
            doc.get("schedule", {}))
        grid = _parse_grid(doc.get("grid", DEFAULT_GRID))

        output = doc.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("'output' must be a string path")

        return RunConfig(surface=doc["surface"], params=dict(params),
                         pole_uv=pole_uv, t_min=t_min, t_max=t_max,
                         count=count, spacing=spacing, grid=grid,
                         output=output)

    @staticmethod
    def from_json(path: str | Path) -> "RunConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") \
                from exc
        return RunConfig.from_dict(doc)

    def run_kwargs(self) -> dict:
        """Keyword arguments for `pipeline.run_surface`."""
        return {
            "params": self.params or None,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "count": self.count,
            "spacing": self.spacing,
            "grid": self.grid,
            "pole_uv": self.pole_uv,
        }


def _is_finite_number(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x))


def _parse_pole(raw) -> tuple | None:
    if raw == "default" or raw is None:
        return None
    if (isinstance(raw, (list, tuple)) and len(raw) == 2
            and all(_is_finite_number(x) for x in raw)):
        return (float(raw[0]), float(raw[1]))
    raise ConfigError(
        "'pole' must be \"default\" or finite chart coordinates [u, v]")


def _parse_schedule(raw) -> tuple:
    if not isinstance(raw, dict):
        raise ConfigError("'schedule' must be an object")
    _reject_unknown(raw, _SCHEDULE_KEYS, "schedule")
    t_min = raw.get("t_min")
    t_max = raw.get("t_max")
    count = raw.get("count")
    spacing = raw.get("spacing", "geometric")
    for name, val in (("t_min", t_min), ("t_max", t_max)):
        if val is not None and (not _is_finite_number(val) or val <= 0):
            raise ConfigError(
                f"schedule '{name}' must be a finite positive number")
    if t_min is not None and t_max is not None and t_min >= t_max:
        raise ConfigError("schedule needs t_min < t_max")
    if count is not None and (not isinstance(count, int) or count < 2):
        raise ConfigError("schedule 'count' must be an integer >= 2")
    if spacing not in _SPACINGS:
        raise ConfigError(
            f"schedule 'spacing' must be one of {_SPACINGS}")
    return (None if t_min is None else float(t_min),
            None if t_max is None else float(t_max),
            count, spacing)


def _parse_grid(raw) -> tuple:
    if isinstance(raw, int) and not isinstance(raw, bool):
        nu = nv = raw
    elif isinstance(raw, (list, tuple)) and len(raw) == 2:
        nu, nv = raw
    else:
        raise ConfigError("'grid' must be an integer n or [n_u, n_v]")
    for name, val in (("n_u", nu), ("n_v", nv)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 64:
            raise ConfigError(f"grid '{name}' must be an integer >= 64")
    return (nu, nv)


def set_config_key(doc: dict, dotted: str, value) -> dict:
    """Return a copy of a raw config dict with one dotted key replaced.

    Supports the keys a sweep may vary: top-level entries ("grid",
    "pole", ...) and one-level paths into objects
    ("params.c", "schedule.count", ...).
    """
    out = json.loads(json.dumps(doc))
    parts = dotted.split(".")
    if len(parts) == 1:
        out[parts[0]] = value
    elif len(parts) == 2:
        head, tail = parts
        if head not in _TOP_KEYS:
            raise ConfigError(f"unknown sweep parameter {dotted!r}")
        sub = out.setdefault(head, {})
        if not isinstance(sub, dict):
            raise ConfigError(
                f"sweep parameter {dotted!r} does not address an object")
        sub[tail] = value
    else:
        raise ConfigError(f"sweep parameter {dotted!r} nests too deep")
    return out
