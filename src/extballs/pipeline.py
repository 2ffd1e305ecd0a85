"""Orchestration: surface -> field -> radius series -> verdict report.

One run builds the distance field once, scans it for critical radii,
warms the full-cell quadrature cache, then extracts the ball of every
scheduled radius in turn.  The trace route of the geodesic-curvature
check then runs once over the boundary samples of all those balls, and
each radius's record is completed from its share.  Scheduled radii that
collide with a critical value of the boundary-distance function are
recorded as skipped rather than evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import entries
from .domains.balls import coarea_integral, extract_ball
from .domains.field import GridSpec, build_field, critical_scan
from .domains.quadrature import ensure_cell_cache
from .errors import ConfigError, CriticalRadius
from .functionals import (RadiusRecord, RadiusSeries, euler_bound_sides,
                          divergence_bound_sides, kg_gaps)
from .verdicts import (VerdictReport, build_verdicts, gb_integrand,
                       growth_ratio, isoperimetric_check)

__all__ = ["PipelineResult", "make_schedule", "run_surface"]

DEFAULT_ALPHAS = (0.25, 0.5, 1.0, 1.5)
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


@dataclass
class PipelineResult:
    field: object
    series: RadiusSeries
    report: VerdictReport


def _measure_ball(field, t: float, min_samples: int):
    """Record of the ball's own measures, and the ball if k_g is due."""
    try:
        ball = extract_ball(field, t, min_samples=min_samples)
    except CriticalRadius as exc:
        return RadiusRecord(t=t, skipped=True, note=str(exc)), None

    rec = RadiusRecord(t=t)
    rec.area = ball.area
    rec.length = ball.boundary_length
    rec.ends = ball.n_components
    rec.min_grad = ball.min_grad
    rec.R = ball.integrals["normBsq"]
    rec.intK = ball.integrals["K"]
    if len(ball.samples) == 0:
        rec.note = "empty ball"
        return rec, None
    return rec, ball


def _complete_record(field, rec: RadiusRecord, ball, g: dict,
                     minimal: bool, on_surface: bool) -> None:
    """Fill the boundary measures of a record from its ball and k_g."""
    t = rec.t
    rec.coarea = coarea_integral(ball)
    rec.intKg = g["intKg"]
    rec.kg_gap_max = g["max_gap"]
    rec.chi_hat = (rec.intK + rec.intKg) / (2.0 * math.pi)
    rec.max_B = float(np.max(ball.samples.frame.normB))

    form = field.surface.form
    if on_surface:
        rec.ratio = growth_ratio(field, t, ball=ball)
    if minimal:
        rec.div_margin = divergence_bound_sides(field, t, ball=ball)["margin"]
        if on_surface:
            rec.iso_margin = isoperimetric_check(field, t, ball=ball)
            if form.curved:
                rec.gb = gb_integrand(field, t, ball=ball)
                rec.gb_chain_residual = rec.gb - (
                    2.0 * math.pi * rec.chi_hat + 0.5 * rec.R
                    - 2.0 * math.pi * rec.ratio)


def run_surface(name: str, *, params: dict | None = None,
                t_min: float | None = None, t_max: float | None = None,
                count: int | None = None, spacing: str = "geometric",
                grid: tuple = (512, 512), pole_uv: tuple | None = None,
                alphas=DEFAULT_ALPHAS, min_samples: int = 200,
                tolerances: dict | None = None,
                periodic_u: bool | None = None,
                periodic_v: bool | None = None) -> PipelineResult:
    """Run the full pipeline for one catalog surface."""
    try:
        entry = entries[name]
    except KeyError:
        raise ConfigError(
            f"unknown catalog surface {name!r}; available: "
            f"{', '.join(sorted(entries))}") from None
    for alpha in alphas:
        if not (0.0 < alpha < 2.0):
            raise ConfigError(f"alpha {alpha} outside (0, 2)")

    t_min = entry.default_t_min if t_min is None else float(t_min)
    t_max = entry.default_t_max if t_max is None else float(t_max)
    count = entry.schedule_points if count is None else int(count)
    schedule = make_schedule(t_min, t_max, count, spacing)

    surface = entry.surface(t_max, params)
    for label, declared, actual in (
            ("periodic_u", periodic_u, surface.periodic_u),
            ("periodic_v", periodic_v, surface.periodic_v)):
        if declared is not None and declared != actual:
            raise ConfigError(
                f"config declares {label}={declared} but the "
                f"{name!r} chart is {label}={actual}")
    pole = None
    if pole_uv is not None:
        pole = surface.eval(np.array([float(pole_uv[0])]),
                            np.array([float(pole_uv[1])]))[0]
    spec = GridSpec(n_u=int(grid[0]), n_v=int(grid[1]))
    field = build_field(surface, t_max, pole=pole, spec=spec)
    ensure_cell_cache(field)

    scan = critical_scan(field, t_min, t_max)
    critical = scan["critical_values"]

    minimal = entry.minimal
    on_surface = True  # default and chart-coordinate poles sit on the chart
    records = []
    measured = []
    for t in schedule:
        t = float(t)
        hit = [v for v in critical if abs(t - v) < _CRITICAL_EXCLUSION]
        if hit:
            records.append(RadiusRecord(
                t=t, skipped=True,
                note=f"within {_CRITICAL_EXCLUSION:g} of critical value "
                     f"{hit[0]:.6f}"))
            continue
        rec, ball = _measure_ball(field, t, min_samples)
        records.append(rec)
        if ball is not None:
            measured.append((rec, ball))

    if measured:
        gaps = kg_gaps(field, [ball for _, ball in measured])
        for (rec, ball), g in zip(measured, gaps):
            _complete_record(field, rec, ball, g, minimal, on_surface)

    series = RadiusSeries(
        schedule=schedule,
        records=records,
        R0=scan["R0"],
        critical_values=critical,
    )
    series.fill_R_prime()
    if minimal:
        form = surface.form
        for rec in series.valid:
            if math.isnan(rec.coarea) or math.isnan(rec.R_prime):
                continue
            chi = int(round(rec.chi_hat))
            for alpha in alphas:
                rec.euler_margins[alpha] = euler_bound_sides(
                    form, rec.t, alpha, R=rec.R, R_prime=rec.R_prime,
                    area=rec.area, coarea=rec.coarea, chi=chi)["margin"]

    report = build_verdicts(
        field, series,
        surface_name=name,
        ambient=entry.ambient,
        declared_minimal=entry.minimal,
        pole_on_surface=on_surface,
        grid=(spec.n_u, spec.n_v),
        tolerances=tolerances,
    )
    return PipelineResult(field=field, series=series, report=report)
