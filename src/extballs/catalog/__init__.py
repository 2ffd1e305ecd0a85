"""Built-in surface catalog.

Each entry wraps a chart factory with enough metadata to drive the
pipeline: how large a chart is needed for a given ball radius, the default
radius schedule, the expected number of boundary curves once the ball has
swallowed every critical point, and closed-form reference values where
they exist.  Chart sizing is deliberately generous; the field builder
independently enforces that the requested balls fit, so a sizing slip
fails loudly rather than truncating a ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..immersion import ParametricSurface
from .charts import (
    catenoid_chart,
    enneper_chart,
    h2_chart,
    helicoid_chart,
    plane_chart,
    sphere_cap_chart,
)
from .profiles import neck_radius, solve_hyperbolic_catenoid, solve_profile

__all__ = [
    "CatalogEntry",
    "entries",
    "lookup",
    "list_entries",
    "neck_radius",
    "solve_hyperbolic_catenoid",
    "solve_profile",
]


def _min_boundary_r(surface: ParametricSurface, samples: int = 400) -> float:
    """Smallest extrinsic distance from the default pole to the chart edge."""
    (u0, u1), (v0, v1) = surface.domain
    pole = surface.default_pole()
    uu = np.linspace(u0, u1, samples)
    edges = [(uu, np.full_like(uu, v0)), (uu, np.full_like(uu, v1))]
    if not surface.periodic_u:
        vv = np.linspace(v0, v1, samples)
        edges += [(np.full_like(vv, u0), vv), (np.full_like(vv, u1), vv)]
    best = np.inf
    for U, V in edges:
        F = surface.eval(U, V)
        best = min(best, float(np.min(
            surface.form.distance(pole, F))))
    return best


def _enneper_halfwidth(t_max: float) -> float:
    """Smallest chart half-width whose boundary clears 1.3 * t_max.

    The cubic chart expands fast, so the search starts from the large-ball
    asymptotic (|F| ~ a^3 / 3 on edge midpoints) and grows geometrically.
    """
    a = max(2.0, (3.0 * t_max) ** (1.0 / 3.0))
    for _ in range(200):
        if _min_boundary_r(enneper_chart(a)) >= 1.3 * t_max:
            return a
        a *= 1.05
    raise ConfigError(f"no Enneper chart found covering t_max={t_max}")


@dataclass(frozen=True)
class CatalogEntry:
    """Registry record for one built-in surface."""

    name: str
    description: str
    ambient: str
    minimal: bool
    build: Callable[[float, dict], ParametricSurface]
    default_t_min: float = 0.5
    default_t_max: float = 8.0
    schedule_points: int = 24
    expected_ends: int | None = None
    params_doc: dict[str, str] = field(default_factory=dict)
    references: tuple[tuple[str, str, str], ...] = ()

    def surface(self, t_max: float | None = None,
                params: dict | None = None) -> ParametricSurface:
        t = self.default_t_max if t_max is None else float(t_max)
        if t <= 0:
            raise ConfigError(f"t_max must be positive, got {t}")
        p = dict(params or {})
        unknown = set(p) - set(self.params_doc)
        if unknown:
            raise ConfigError(
                f"unknown parameter(s) {sorted(unknown)} for catalog "
                f"surface {self.name!r}; accepted: "
                f"{sorted(self.params_doc) or 'none'}"
            )
        for key, val in p.items():
            if (not isinstance(val, (int, float)) or isinstance(val, bool)
                    or not math.isfinite(val) or val <= 0):
                raise ConfigError(
                    f"parameter {key!r} of {self.name!r} must be a finite "
                    f"positive number, got {val!r}")
        return self.build(t, p)


def _build_plane(t_max, p):
    return plane_chart(1.25 * t_max)


def _build_catenoid(t_max, p):
    return catenoid_chart(float(np.arccosh(t_max + 1.0)) + 1.0)


def _build_enneper(t_max, p):
    return enneper_chart(_enneper_halfwidth(t_max))


def _build_helicoid(t_max, p):
    return helicoid_chart(1.15 * t_max)


def _build_h2(t_max, p):
    return h2_chart(1.1 * t_max)


def _build_sphere(t_max, p):
    if t_max > 1.7:
        raise ConfigError(
            f"sphere control only supports t_max <= 1.7 (extrinsic "
            f"diameter 2), got {t_max}"
        )
    return sphere_cap_chart(2.2)


def _build_hyperbolic_catenoid(t_max, p):
    c = p.get("c", 1.0)
    return solve_hyperbolic_catenoid(c, t_max + neck_radius(c) + 3.0)


_ENTRIES = [
    CatalogEntry(
        name="plane",
        description="flat plane through the origin of R^3",
        ambient="R^3", minimal=True, build=_build_plane,
        expected_ends=1,
        references=(
            ("euler characteristic", "1", "exact"),
            ("total squared curvature, full surface", "0", "exact"),
            ("area growth limit", "1", "exact"),
        ),
    ),
    CatalogEntry(
        name="catenoid",
        description="unit-neck catenoid (cosh v cos u, cosh v sin u, v)",
        ambient="R^3", minimal=True, build=_build_catenoid,
        expected_ends=2,
        references=(
            ("euler characteristic", "0", "exact"),
            ("total squared curvature, full surface", "8*pi", "exact"),
            ("area growth limit", "2", "exact"),
        ),
    ),
    CatalogEntry(
        name="enneper",
        description="Enneper surface (u - u^3/3 + u v^2, -(v - v^3/3 + u^2 v),"
                    " u^2 - v^2)",
        ambient="R^3", minimal=True, build=_build_enneper,
        expected_ends=1,
        references=(
            ("euler characteristic", "1", "exact"),
            ("total squared curvature, full surface", "8*pi", "exact"),
            ("area growth limit", "3", "exact"),
        ),
    ),
    CatalogEntry(
        name="helicoid",
        description="helicoid (v cos u, v sin u, u); infinite total "
                    "curvature negative control",
        ambient="R^3", minimal=True, build=_build_helicoid,
        expected_ends=1,
        references=(
            ("euler characteristic", "1", "exact"),
            ("total squared curvature, full surface", "infinite", "exact"),
            ("area growth", "divergent", "exact"),
        ),
    ),
    CatalogEntry(
        name="h2_in_h3",
        description="totally geodesic hyperbolic plane inside H^3",
        ambient="H^3 (b = -1)", minimal=True, build=_build_h2,
        expected_ends=1,
        references=(
            ("euler characteristic", "1", "exact"),
            ("total squared curvature, full surface", "0", "exact"),
            ("area growth limit", "1", "exact"),
        ),
    ),
    CatalogEntry(
        name="hyperbolic_catenoid",
        description="rotational minimal surface about a geodesic axis of "
                    "H^3, profile integrated from its first integral",
        ambient="H^3 (b = -1)", minimal=True,
        build=_build_hyperbolic_catenoid,
        expected_ends=2,
        params_doc={"c": "profile first-integral constant, c > 0 (default 1)"},
        references=(
            ("euler characteristic", "0", "exact"),
            ("neck distance from axis at c=1", "asinh(2)/2", "exact"),
        ),
    ),
    CatalogEntry(
        name="sphere_control",
        description="unit sphere through the origin (center offset to "
                    "(1,0,0)); non-minimal control",
        ambient="R^3", minimal=False, build=_build_sphere,
        default_t_min=0.3, default_t_max=1.5,
        expected_ends=1,
        references=(
            ("euler characteristic", "1", "exact"),
            ("mean curvature magnitude", "1", "exact"),
            ("ball area at radius t", "2*pi*(1 - cos(2*asin(t/2)))",
             "exact"),
        ),
    ),
]

entries: dict[str, CatalogEntry] = {e.name: e for e in _ENTRIES}


def lookup(name: str) -> CatalogEntry:
    """The catalog entry of a surface name."""
    try:
        return entries[name]
    except KeyError:
        raise ConfigError(
            f"unknown catalog surface {name!r}; available: "
            f"{', '.join(sorted(entries))}"
        ) from None


def list_entries() -> list[dict]:
    """Serializable catalog summary used by the CLI listing."""
    out = []
    for e in _ENTRIES:
        out.append({
            "name": e.name,
            "description": e.description,
            "ambient": e.ambient,
            "minimal": e.minimal,
            "default_schedule": {
                "t_min": e.default_t_min,
                "t_max": e.default_t_max,
                "points": e.schedule_points,
            },
            "expected_ends": e.expected_ends,
            "parameters": dict(e.params_doc),
            "references": [
                {"quantity": q, "value": v, "provenance": tag}
                for q, v, tag in e.references
            ],
        })
    return out
