"""Run configuration: one JSON document describing one pipeline run.

A config names a catalog surface and optionally overrides the pole, the
radius schedule, the grid, the Euler-bound exponents, and tolerance
values.  Validation is strict: unknown keys anywhere in the document are
errors, so a typo cannot silently fall back to a default and make a
report look like it came from a different run than it did.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .verdicts import DEFAULT_TOLERANCES

_SPACINGS = ("geometric", "linear")

_TOP_KEYS = {"surface", "params", "pole", "schedule", "grid", "alphas",
             "tolerances", "min_samples", "workers", "output"}
_SCHEDULE_KEYS = {"t_min", "t_max", "count", "spacing"}
_GRID_KEYS = {"n_u", "n_v", "periodic_u", "periodic_v"}


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
    grid: tuple = (512, 512)
    periodic_u: bool | None = None
    periodic_v: bool | None = None
    alphas: tuple = (0.25, 0.5, 1.0, 1.5)
    tolerances: dict = field(default_factory=dict)
    min_samples: int = 200
    workers: int | None = None     # validated but ignored: runs are serial
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
        grid, per_u, per_v = _parse_grid(doc.get("grid", [512, 512]))
        alphas = _parse_alphas(doc.get("alphas", [0.25, 0.5, 1.0, 1.5]))
        tolerances = _parse_tolerances(doc.get("tolerances", {}))

        min_samples = doc.get("min_samples", 200)
        if not isinstance(min_samples, int) or min_samples < 1:
            raise ConfigError("'min_samples' must be a positive integer")
        workers = doc.get("workers")
        if workers is not None and (not isinstance(workers, int)
                                    or workers < 1):
            raise ConfigError("'workers' must be a positive integer or null")
        output = doc.get("output")
        if output is not None and not isinstance(output, str):
            raise ConfigError("'output' must be a string path")

        return RunConfig(surface=doc["surface"], params=dict(params),
                         pole_uv=pole_uv, t_min=t_min, t_max=t_max,
                         count=count, spacing=spacing, grid=grid,
                         periodic_u=per_u, periodic_v=per_v,
                         alphas=alphas, tolerances=tolerances,
                         min_samples=min_samples, workers=workers,
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
            "alphas": self.alphas,
            "min_samples": self.min_samples,
            "tolerances": self.tolerances or None,
            "periodic_u": self.periodic_u,
            "periodic_v": self.periodic_v,
        }


def _parse_pole(raw) -> tuple | None:
    if raw == "default" or raw is None:
        return None
    if (isinstance(raw, (list, tuple)) and len(raw) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool)
                    for x in raw)):
        return (float(raw[0]), float(raw[1]))
    raise ConfigError(
        "'pole' must be \"default\" or chart coordinates [u, v]")


def _parse_schedule(raw) -> tuple:
    if not isinstance(raw, dict):
        raise ConfigError("'schedule' must be an object")
    _reject_unknown(raw, _SCHEDULE_KEYS, "schedule")
    t_min = raw.get("t_min")
    t_max = raw.get("t_max")
    count = raw.get("count")
    spacing = raw.get("spacing", "geometric")
    for name, val in (("t_min", t_min), ("t_max", t_max)):
        if val is not None:
            if not isinstance(val, (int, float)) or isinstance(val, bool) \
                    or val <= 0:
                raise ConfigError(f"schedule '{name}' must be positive")
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
    per_u = per_v = None
    if isinstance(raw, dict):
        _reject_unknown(raw, _GRID_KEYS, "grid")
        nu = raw.get("n_u", 512)
        nv = raw.get("n_v", 512)
        per_u = raw.get("periodic_u")
        per_v = raw.get("periodic_v")
        for name, val in (("periodic_u", per_u), ("periodic_v", per_v)):
            if val is not None and not isinstance(val, bool):
                raise ConfigError(f"grid '{name}' must be a boolean")
    elif isinstance(raw, int) and not isinstance(raw, bool):
        nu = nv = raw
    elif (isinstance(raw, (list, tuple)) and len(raw) == 2):
        nu, nv = raw
    else:
        raise ConfigError(
            "'grid' must be an integer, [n_u, n_v], or an object")
    for name, val in (("n_u", nu), ("n_v", nv)):
        if not isinstance(val, int) or isinstance(val, bool) or val < 64:
            raise ConfigError(f"grid '{name}' must be an integer >= 64")
    return (nu, nv), per_u, per_v


def _parse_alphas(raw) -> tuple:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("'alphas' must be a non-empty array")
    out = []
    for a in raw:
        if not isinstance(a, (int, float)) or isinstance(a, bool) \
                or not 0.0 < a < 2.0:
            raise ConfigError(f"alpha {a!r} outside the open interval (0, 2)")
        out.append(float(a))
    return tuple(out)


def _parse_tolerances(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("'tolerances' must be an object")
    _reject_unknown(raw, set(DEFAULT_TOLERANCES), "tolerance")
    out = {}
    for key, val in raw.items():
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ConfigError(f"tolerance {key!r} must be a number")
        out[key] = float(val)
    return out


def set_config_key(doc: dict, dotted: str, value) -> dict:
    """Return a copy of a raw config dict with one dotted key replaced.

    Supports the keys a sweep may vary: top-level entries ("grid",
    "alphas", "min_samples", ...) and one-level paths into objects
    ("params.c", "schedule.count", "tolerances.kg_gap", ...).
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
