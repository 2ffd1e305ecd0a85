"""Orchestration: surface -> field -> radius series -> verdict report.

One run builds the distance field once, warms the full-cell quadrature
cache, counts the critical values of r on the field's triangulated grid
(`critical_scan`; R0 is the largest), then takes two steps: measure the
record of every scheduled radius (extract its ball, check the boundary's
geodesic curvature by the Hessian and formula routes, and gather the
per-radius functionals), and assemble the verdicts.  Scheduled radii
within 1e-6 of a critical value, or below which no grid node lies (no
discrete boundary, although the true ball always holds the pole), are
skipped.

The field and its cell cache are built in the caller, in fixed-size
blocks.  The radii of the schedule then run on every CPU through
`immersion.batch_map`: the caller and one forked child per further CPU
claim the radii in order, and each returns the record it computes.  The
field and its cell cache are read-only by then, every radius is
independent, and records are collected in schedule order, so a report
does not depend on the CPU count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import lookup
from .domains.balls import extract_ball, no_node_note
from .domains.field import GridSpec, build_field, critical_scan
from .domains.quadrature import ensure_cell_cache
from .errors import ConfigError, CriticalRadius
from .functionals import (EULER_ALPHAS, RadiusRecord, RadiusSeries,
                          euler_bound_sides, radius_record)
from .immersion import batch_map
from .verdicts import VerdictReport, build_verdicts

__all__ = ["PipelineResult", "make_schedule", "run_surface"]

DEFAULT_GRID = (512, 512)
_CRITICAL_EXCLUSION = 1e-6


def make_schedule(t_min: float, t_max: float, count: int,
                  spacing: str = "geometric") -> np.ndarray:
    """Strictly increasing radius schedule, geometric by default."""
    if not (0.0 < t_min < t_max):
        raise ConfigError(f"need 0 < t_min < t_max, got ({t_min}, {t_max})")
    if count < 2:
        raise ConfigError(f"schedule needs at least 2 radii, got {count}")
    if spacing == "geometric":
        return np.geomspace(t_min, t_max, count)
    if spacing == "linear":
        return np.linspace(t_min, t_max, count)
    raise ConfigError(f"unknown spacing {spacing!r}; use geometric|linear")


def _check_pole_in_domain(surface, pole_uv: tuple) -> None:
    """Reject chart coordinates outside the domain in a non-wrapping
    direction: every ball about such a pole would be empty."""
    (u0, u1), (v0, v1) = surface.domain
    u, v = pole_uv
    if (v0 <= v <= v1) and (surface.periodic_u or u0 <= u <= u1):
        return
    u_range = "u periodic" if surface.periodic_u else f"u in [{u0:g}, {u1:g}]"
    raise ConfigError(
        f"'pole' [{u:g}, {v:g}] lies outside the chart domain of "
        f"{surface.label!r} ({u_range}, v in [{v0:g}, {v1:g}])")


@dataclass
class PipelineResult:
    field: object
    series: RadiusSeries
    report: VerdictReport


def run_surface(name: str, *, params: dict | None = None,
                t_min: float | None = None, t_max: float | None = None,
                count: int | None = None, spacing: str = "geometric",
                grid: tuple = DEFAULT_GRID,
                pole_uv: tuple | None = None) -> PipelineResult:
    """Run the full pipeline for one catalog surface."""
    entry = lookup(name)

    t_min = entry.default_t_min if t_min is None else float(t_min)
    t_max = entry.default_t_max if t_max is None else float(t_max)
    count = entry.schedule_points if count is None else int(count)
    schedule = make_schedule(t_min, t_max, count, spacing)

    surface = entry.surface(t_max, params)
    pole = None
    if pole_uv is not None:
        _check_pole_in_domain(surface, pole_uv)
        pole = surface.eval(np.array([float(pole_uv[0])]),
                            np.array([float(pole_uv[1])]))[:, 0]
    spec = GridSpec(n_u=int(grid[0]), n_v=int(grid[1]))
    field = build_field(surface, t_max, pole=pole, spec=spec)
    ensure_cell_cache(field)

    scan = critical_scan(field, t_min, t_max)
    critical = scan["critical_values"]

    # The record of one radius, measured on its ball or skipped.
    r_nearest = float(np.min(field.r))
    minimal = entry.minimal

    def step(t):
        t = float(t)
        hit = [v for v in critical if abs(t - v) < _CRITICAL_EXCLUSION]
        if hit:
            return RadiusRecord(
                t=t, skipped=True,
                note=f"within {_CRITICAL_EXCLUSION:g} of critical value "
                     f"{hit[0]:.6f}")
        if t <= r_nearest:
            return RadiusRecord(t=t, skipped=True,
                                note=no_node_note(t, r_nearest))
        try:
            ball = extract_ball(field, t)
        except CriticalRadius as exc:
            return RadiusRecord(t=t, skipped=True, note=str(exc))
        return radius_record(field, ball, minimal)

    records = batch_map(step, schedule)

    series = RadiusSeries(
        records=records,
        R0=scan["R0"],
        critical_values=critical,
    )
    series.fill_R_prime()
    if minimal:
        form = surface.form
        for rec in series.valid:
            if math.isnan(rec.R_prime):
                continue
            chi = int(round(rec.chi_hat))
            for alpha in EULER_ALPHAS:
                rec.euler_margins[alpha] = euler_bound_sides(
                    form, rec.t, alpha, R=rec.R, R_prime=rec.R_prime,
                    area=rec.area, coarea=rec.coarea, chi=chi)["margin"]

    report = build_verdicts(
        field, series,
        surface_name=name,
        ambient=entry.ambient,
        declared_minimal=entry.minimal,
    )
    return PipelineResult(field=field, series=series, report=report)
