"""Theorem-level verdicts assembled from a radius series.

A verdict is one named check with a numeric margin, a tolerance, an
applicability flag, and a pass/fail bit.  The report gathers them with
the headline quantities (Euler characteristic, supremal area growth,
total squared curvature, and for hyperbolic ambients the limit defect
G_b) and reduces to a process exit status: 0 when every applicable
gating check passes, 2 when the input surface violates the
finite-total-curvature hypothesis, 1 otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from .domains.balls import ExtrinsicBall, extract_ball
from .domains.field import DistanceField
from .errors import ConfigError
from .functionals import PARTNER_SPAN, RadiusSeries
from .immersion import check_surface

__all__ = [
    "DEFAULT_TOLERANCES",
    "Verdict",
    "VerdictReport",
    "build_verdicts",
    "gb_integrand",
    "growth_ratio",
    "isoperimetric_check",
    "minimality_check",
]

_NAN = float("nan")

DEFAULT_TOLERANCES = {
    "kg_gap": 1e-5,            # worst formula-vs-trace disagreement
    "chi_residual": 0.05,      # distance of chi_hat from its integer
    "bound_margin": -1e-6,     # divergence / Euler-growth bound floor
    "iso_margin": -1e-6,       # isoperimetric margin floor
    "co_margin": -0.02,        # comparison-inequality margin floor
    "co_equality": 0.05,       # reported proximity to equality (b = 0)
    "co_eq_residual": 0.03,    # equality residual (b < 0)
    "gb_floor": -0.01,         # nonnegativity floor for G_b
    "gb_spread": 0.02,         # Cauchy window for the G_b tail
    "gb_chain": 0.02,          # per-radius defect identity tolerance
    "decay_cap": 0.1,          # boundary max |B| counts as vanished below
    "diverge_delta": 1.0,      # absolute R growth floor for the divergence flag
    "diverge_frac": 0.25,      # fraction of total R that growth must exceed
    # Monotonicity slacks sit above the quadrature wobble of coarse grids
    # (ratio increments jitter by ~2e-4 at 64x64) and far below genuine
    # violations, which show up at the 1e-2 scale.
    "ratio_slack": 1e-3,
    "R_slack": 1e-5,
    "minimal_H": 1e-6,         # mean-curvature ceiling for "minimal"
}


def growth_ratio(field: DistanceField, t: float,
                 ball: ExtrinsicBall | None = None) -> float:
    """Ball area over the area of the comparison geodesic disk."""
    if ball is None:
        ball = extract_ball(field, t)
    return ball.area / float(field.surface.form.ball_area(t))


def isoperimetric_check(field: DistanceField, t: float,
                        ball: ExtrinsicBall | None = None) -> float:
    """Margin of the comparison isoperimetric inequality.

    length/area minus the same quotient for the geodesic disk of the
    ambient space form; nonnegative for minimal surfaces with the pole
    on the surface, zero exactly on the model disks.
    """
    if ball is None:
        ball = extract_ball(field, t)
    form = field.surface.form
    model = float(form.circle_length(t)) / float(form.ball_area(t))
    return ball.boundary_length / ball.area - model


def gb_integrand(field: DistanceField, t: float,
                 ball: ExtrinsicBall | None = None) -> float:
    """Per-radius integrand whose large-t limit is the defect G_b.

    h(t) * V_b(t) * d/dt[area / V_b(t)] plus the boundary integral of
    <B(e,e), perp gradient of r> / |tangential gradient|.  The ratio
    derivative expands by the quotient rule into the coarea integral
    and closed-form comparison data, so no finite differencing in t is
    involved and the totally geodesic case lands on zero exactly.
    """
    form = field.surface.form
    if not form.curved:
        raise ConfigError("the limit defect is defined for curved "
                          "ambients only (b < 0)")
    if ball is None:
        ball = extract_ball(field, t)
    h = float(form.h(t))
    V = float(form.ball_area(t))
    Vp = float(form.circle_length(t))
    fb = ball.samples.frame
    coarea = float(np.sum(ball.samples.weight / fb.normGradPr))
    ip = form.inner
    normal_term = float(np.sum(
        ball.samples.weight
        * ip(fb.bilinear_B(ball.samples.e, ball.samples.e),
             fb.ambient_gradPerp()) / fb.normGradPr))
    return h * (coarea - ball.area * Vp / V) + normal_term


def minimality_check(surface, t_max: float,
                     tol: float = DEFAULT_TOLERANCES["minimal_H"]) -> dict:
    """Sampled mean-curvature oracle over the ball-serving region."""
    probe = check_surface(surface, n=200, max_r=t_max)
    return {"minimal": probe["max_normH"] <= tol,
            "max_normH": probe["max_normH"], "tol": tol}


# ---------------------------------------------------------------------------
# Report assembly


@dataclass
class Verdict:
    name: str
    applicable: bool
    passed: bool | None
    margin: float
    tol: float
    detail: str = ""
    gating: bool = True

    def as_dict(self) -> dict:
        return {"name": self.name, "applicable": self.applicable,
                "passed": self.passed, "margin": self.margin,
                "tol": self.tol, "detail": self.detail,
                "gating": self.gating}


@dataclass
class VerdictReport:
    surface: str
    ambient: str
    declared_minimal: bool
    measured_minimal: bool
    max_normH: float
    pole: list
    pole_on_surface: bool
    grid: tuple
    t_max: float
    schedule: list
    skipped: list
    R0: float
    critical_values: list
    chi: int | None
    sup_growth: float
    R_end: float
    R_growth_doubling: float
    G_b: float
    G_b_spread: float
    hypothesis_violated: bool
    verdicts: list = dfield(default_factory=list)

    @property
    def exit_status(self) -> int:
        if self.hypothesis_violated:
            return 2
        bad = [v for v in self.verdicts
               if v.gating and v.applicable and v.passed is False]
        return 1 if bad else 0

    def verdict(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    def as_dict(self) -> dict:
        return {
            "surface": self.surface,
            "ambient": self.ambient,
            "declared_minimal": self.declared_minimal,
            "measured_minimal": self.measured_minimal,
            "max_normH": self.max_normH,
            "pole": list(self.pole),
            "pole_on_surface": self.pole_on_surface,
            "grid": list(self.grid),
            "t_max": self.t_max,
            "schedule": list(self.schedule),
            "skipped": list(self.skipped),
            "R0": self.R0,
            "critical_values": list(self.critical_values),
            "chi": self.chi,
            "sup_growth": self.sup_growth,
            "R_end": self.R_end,
            "R_growth_doubling": self.R_growth_doubling,
            "G_b": self.G_b,
            "G_b_spread": self.G_b_spread,
            "hypothesis_violated": self.hypothesis_violated,
            "exit_status": self.exit_status,
            "verdicts": [v.as_dict() for v in self.verdicts],
        }


def _series_min(series: RadiusSeries, key: str) -> float:
    vals = [getattr(rec, key) for rec in series.valid]
    vals = [v for v in vals if not math.isnan(v)]
    return min(vals) if vals else _NAN


def _min_increment(series: RadiusSeries, key: str) -> float:
    vals = [getattr(rec, key) for rec in series.valid]
    vals = [v for v in vals if not math.isnan(v)]
    if len(vals) < 2:
        return _NAN
    return min(b - a for a, b in zip(vals, vals[1:]))


def _series_max(series: RadiusSeries, key: str) -> float:
    vals = [getattr(rec, key) for rec in series.valid]
    vals = [v for v in vals if not math.isnan(v)]
    return max(vals) if vals else _NAN


def build_verdicts(field: DistanceField, series: RadiusSeries, *,
                   surface_name: str, ambient: str, declared_minimal: bool,
                   pole_on_surface: bool, grid: tuple,
                   tolerances: dict | None = None) -> VerdictReport:
    """Reduce a finished radius series to the theorem-level report."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        unknown = set(tolerances) - set(tol)
        if unknown:
            raise ConfigError(f"unknown tolerance keys {sorted(unknown)}")
        tol.update(tolerances)

    form = field.surface.form
    probe = minimality_check(field.surface, field.t_max, tol["minimal_H"])
    measured_minimal = probe["minimal"]
    minimal = declared_minimal and measured_minimal
    valid = series.valid
    verdicts: list[Verdict] = []

    def add(name, applicable, passed, margin, tkey, detail="", gating=True):
        verdicts.append(Verdict(name, applicable,
                                passed if applicable else None,
                                margin, tol[tkey] if tkey else _NAN,
                                detail, gating))

    # Oracle agreement: the sampled mean curvature must match the
    # catalog's claim; a control surface passing as minimal (or the
    # reverse) poisons every downstream verdict.
    add("minimality_oracle", True, measured_minimal == declared_minimal,
        probe["max_normH"], "minimal_H",
        f"max |H| {probe['max_normH']:.2e} vs declared "
        f"minimal={declared_minimal}")

    # Geodesic-curvature identity: the worst disagreement between the
    # trace route and the frame-formula route across the schedule.
    gap = _series_max(series, "kg_gap_max")
    add("kg_identity", len(valid) > 0,
        bool(gap <= tol["kg_gap"]), gap, "kg_gap",
        f"max |formula - trace| {gap:.2e}")

    # Euler-characteristic plateau.
    plateau = series.chi_plateau()
    chi = plateau["chi"] if plateau["count"] else None
    add("chi_plateau", plateau["count"] > 0,
        bool(plateau["constant"]
             and plateau["max_residual"] <= tol["chi_residual"]),
        plateau["max_residual"], "chi_residual",
        f"chi={chi} over {plateau['count']} settled radii, "
        f"constant={plateau['constant']}")

    # Monotonicity of R(t) (nested domains, nonnegative integrand).
    R_inc = _min_increment(series, "R")
    add("R_monotone", len(valid) > 1,
        bool(R_inc >= -tol["R_slack"]), R_inc, "R_slack",
        f"smallest consecutive increment {R_inc:.3e}")

    # Hypothesis control: R growth across the top doubling of t.  True
    # divergence keeps adding a fixed fraction of the running total over
    # every doubling (3/4 of it for area-like growth), while a finite
    # limit drives the increment toward zero; the absolute floor keeps
    # slowly-converging tails and round-off dust out of the trigger.
    R_end = valid[-1].R if valid else _NAN
    growth_doubling = series.R_growth_over_doubling()
    diverged = (minimal
                and not math.isnan(growth_doubling)
                and growth_doubling > max(tol["diverge_delta"],
                                          tol["diverge_frac"] * R_end))
    sup_growth = _NAN
    if pole_on_surface and valid:
        ratios = [rec.ratio for rec in valid if not math.isnan(rec.ratio)]
        sup_growth = ratios[-1] if ratios else _NAN

    # Minimal-surface bounds; the non-minimal control is excluded.
    div_min = _series_min(series, "div_margin")
    add("divergence_bound", minimal and len(valid) > 0,
        bool(div_min >= tol["bound_margin"]), div_min, "bound_margin",
        f"min margin {div_min:.3e}" if minimal else "non-minimal")

    euler_vals = [m for rec in valid for m in rec.euler_margins.values()
                  if not math.isnan(m)]
    euler_min = min(euler_vals) if euler_vals else _NAN
    add("euler_growth_bound", minimal and bool(euler_vals),
        bool(euler_min >= tol["bound_margin"]), euler_min, "bound_margin",
        f"min margin over alphas {euler_min:.3e}" if minimal
        else "non-minimal")

    iso_min = _series_min(series, "iso_margin")
    add("isoperimetric", minimal and pole_on_surface and len(valid) > 0,
        bool(iso_min >= tol["iso_margin"]), iso_min, "iso_margin",
        f"min margin {iso_min:.3e}")

    ratio_inc = _min_increment(series, "ratio")
    add("ratio_monotone", minimal and pole_on_surface and len(valid) > 1,
        bool(ratio_inc >= -tol["ratio_slack"]), ratio_inc, "ratio_slack",
        f"smallest consecutive increment {ratio_inc:.3e}")

    # Decay of the boundary second-form maximum.
    tail = [rec.max_B for rec in valid[-5:] if not math.isnan(rec.max_B)]
    # Vanishing means the tail ends under the cap and has genuinely come
    # down from where it started (a flat zero tail trivially qualifies).
    decay_ok = (len(tail) >= 2
                and tail[-1] < tol["decay_cap"]
                and tail[-1] <= 0.75 * tail[0] + 1e-6)
    add("curvature_decay", minimal and len(tail) >= 2, decay_ok,
        tail[-1] if tail else _NAN, "decay_cap",
        f"boundary max |B| tail {['%.3f' % x for x in tail]}",
        gating=False)

    # The comparison inequality and, for curved ambients, the equality.
    co_applicable = (minimal and pole_on_surface and not diverged
                     and chi is not None and not math.isnan(sup_growth))
    co_margin = _NAN
    if co_applicable:
        co_margin = R_end / (4.0 * math.pi) - sup_growth + chi
    add("chern_osserman", co_applicable,
        bool(co_margin >= tol["co_margin"]), co_margin, "co_margin",
        f"R/4pi - sup + chi = {co_margin:+.4f}" if co_applicable else "")
    # Diagnostic only: in a hyperbolic ambient the gap converges to the
    # limit defect over 2 pi rather than to zero, and even at b = 0 it
    # measures distance from a limit that finite t need not reach.
    add("chern_osserman_equality_gap", co_applicable,
        bool(abs(co_margin) <= tol["co_equality"]) if co_applicable else None,
        abs(co_margin) if co_applicable else _NAN, "co_equality",
        "distance from equality at t_max",
        gating=False)

    # The defect verdicts are reported for every surface so the verdict
    # list has one shape everywhere; they only apply in a curved ambient
    # with an on-surface pole and a minimal surface.
    G_b = _NAN
    G_b_spread = _NAN
    gb_applicable = bool(form.curved) and minimal and pole_on_surface
    gbs = []
    settled = []
    if gb_applicable:
        gbs = [rec.gb for rec in valid if not math.isnan(rec.gb)]
        if len(gbs) >= 3:
            window = gbs[-3:]
            G_b = float(np.mean(window))
            G_b_spread = float(np.max(window) - np.min(window))
        settled = [abs(rec.gb_chain_residual) for rec in valid
                   if rec.t > series.R0
                   and not math.isnan(rec.gb_chain_residual)]
    resolved = (not math.isnan(G_b)
                and G_b_spread <= tol["gb_spread"])
    add("gb_tail_resolved", gb_applicable and len(gbs) >= 3, resolved,
        G_b_spread, "gb_spread",
        f"G_b = {G_b:+.5f} +- {G_b_spread:.2e}" if resolved else
        "limit not resolved at t_max", gating=False)
    add("gb_nonnegative", gb_applicable and not math.isnan(G_b),
        bool(G_b >= tol["gb_floor"]), G_b, "gb_floor")
    chain = max(settled) if settled else _NAN
    add("gb_chain_identity", bool(settled),
        bool(chain <= tol["gb_chain"]), chain, "gb_chain",
        "per-radius defect identity vs chi/R/ratio rearrangement")
    eq_applicable = (gb_applicable and co_applicable
                     and not math.isnan(G_b))
    eq_residual = _NAN
    if eq_applicable:
        eq_residual = abs(-chi - (R_end / (4.0 * math.pi) - sup_growth
                                  - G_b / (2.0 * math.pi)))
    add("chern_osserman_equality", eq_applicable,
        bool(eq_residual <= tol["co_eq_residual"]) if eq_applicable
        else None,
        eq_residual, "co_eq_residual")

    if diverged:
        add("total_curvature_finite", True, False, growth_doubling,
            "diverge_delta",
            f"R grew by {growth_doubling:.2f} over the top doubling "
            f"of t (total {R_end:.2f}): infinite total curvature")
    else:
        measured = not math.isnan(growth_doubling)
        add("total_curvature_finite", minimal and measured, True,
            growth_doubling, "diverge_delta",
            "" if measured or not minimal else
            f"no radius in [t_last/{PARTNER_SPAN:g}, t_last/2] to measure "
            "a doubling")

    return VerdictReport(
        surface=surface_name,
        ambient=ambient,
        declared_minimal=declared_minimal,
        measured_minimal=measured_minimal,
        max_normH=probe["max_normH"],
        pole=[float(x) for x in np.asarray(field.pole).ravel()],
        pole_on_surface=pole_on_surface,
        grid=grid,
        t_max=field.t_max,
        schedule=[rec.t for rec in series.records],
        skipped=[(rec.t, rec.note) for rec in series.records if rec.skipped],
        R0=series.R0,
        critical_values=list(series.critical_values),
        chi=chi,
        sup_growth=sup_growth,
        R_end=R_end,
        R_growth_doubling=growth_doubling,
        G_b=G_b,
        G_b_spread=G_b_spread,
        hypothesis_violated=diverged,
        verdicts=verdicts,
    )
