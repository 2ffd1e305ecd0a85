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
from dataclasses import asdict, dataclass, field as dfield

import numpy as np

from .functionals import PARTNER_SPAN, RadiusSeries
from .immersion import frames

__all__ = [
    "TOLERANCES",
    "Verdict",
    "VerdictReport",
    "build_verdicts",
]

_NAN = float("nan")

TOLERANCES = {
    "kg_gap": 1e-5,            # worst formula-vs-Hessian disagreement
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


@dataclass
class VerdictReport:
    surface: str
    ambient: str
    declared_minimal: bool
    measured_minimal: bool
    max_normH: float
    pole: list
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

    def as_dict(self) -> dict:
        out = {}
        for key, value in asdict(self).items():
            out[key] = value
            if key == "pole":
                # Default and chart-coordinate poles both sit on the surface.
                out["pole_on_surface"] = True
            elif key == "hypothesis_violated":
                out["exit_status"] = self.exit_status
        return out


def _finite(series: RadiusSeries, key: str) -> list[float]:
    """The non-NaN values of ``key`` over the series' valid radii."""
    vals = (getattr(rec, key) for rec in series.valid)
    return [v for v in vals if not math.isnan(v)]


def build_verdicts(field, series: RadiusSeries, *, surface_name: str,
                   ambient: str, declared_minimal: bool) -> VerdictReport:
    """Reduce a finished radius series of a distance field to the report."""
    form = field.surface.form
    # Sampled mean-curvature oracle over the ball-serving region: up to
    # 200 grid nodes within t_max of the pole, evenly strided through
    # them in row-major order, or the nearest one.
    nodes = np.flatnonzero(field.r <= max(field.t_max, np.min(field.r)))
    count = min(200, len(nodes))
    pick = nodes[np.arange(count) * len(nodes) // count]
    iu, iv = np.unravel_index(pick, field.r.shape)
    fb = frames(field.surface, field.u_nodes[iu], field.v_nodes[iv])
    max_normH = float(np.max(np.abs(fb.H)))
    measured_minimal = max_normH <= TOLERANCES["minimal_H"]
    minimal = declared_minimal and measured_minimal
    valid = series.valid
    verdicts: list[Verdict] = []

    def add(name, applicable, passed, margin, tkey, detail="", gating=True):
        verdicts.append(Verdict(name, applicable,
                                passed if applicable else None,
                                margin, TOLERANCES[tkey] if tkey else _NAN,
                                detail, gating))

    # Oracle agreement: the sampled mean curvature must match the
    # catalog's claim; a control surface passing as minimal (or the
    # reverse) poisons every downstream verdict.
    add("minimality_oracle", True, measured_minimal == declared_minimal,
        max_normH, "minimal_H",
        f"max |H| {max_normH:.2e} vs declared minimal={declared_minimal}")

    # Geodesic-curvature identity: the worst disagreement between the
    # Hessian route and the frame-formula route across the schedule.
    gap = max((rec.kg_gap_max for rec in valid), default=_NAN)
    add("kg_identity", len(valid) > 0,
        bool(gap <= TOLERANCES["kg_gap"]), gap, "kg_gap",
        f"max |formula - Hessian| {gap:.2e}")

    # Euler-characteristic plateau.
    plateau = series.chi_plateau()
    chi = plateau["chi"] if plateau["count"] else None
    add("chi_plateau", plateau["count"] > 0,
        bool(plateau["constant"]
             and plateau["max_residual"] <= TOLERANCES["chi_residual"]),
        plateau["max_residual"], "chi_residual",
        f"chi={chi} over {plateau['count']} settled radii, "
        f"constant={plateau['constant']}")

    # Monotonicity of R(t) (nested domains, nonnegative integrand).
    R = [rec.R for rec in valid]
    R_inc = min((b - a for a, b in zip(R, R[1:])), default=_NAN)
    add("R_monotone", len(valid) > 1,
        bool(R_inc >= -TOLERANCES["R_slack"]), R_inc, "R_slack",
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
                and growth_doubling > max(TOLERANCES["diverge_delta"],
                                          TOLERANCES["diverge_frac"] * R_end))
    ratios = [rec.ratio for rec in valid]
    sup_growth = ratios[-1] if ratios else _NAN

    # Minimal-surface bounds; the non-minimal control is excluded.
    div_min = min(_finite(series, "div_margin"), default=_NAN)
    add("divergence_bound", minimal and len(valid) > 0,
        bool(div_min >= TOLERANCES["bound_margin"]), div_min,
        "bound_margin",
        f"min margin {div_min:.3e}" if minimal else "non-minimal")

    euler_vals = [m for rec in valid for m in rec.euler_margins.values()]
    euler_min = min(euler_vals) if euler_vals else _NAN
    add("euler_growth_bound", minimal and bool(euler_vals),
        bool(euler_min >= TOLERANCES["bound_margin"]), euler_min,
        "bound_margin",
        f"min margin over alphas {euler_min:.3e}" if minimal
        else "non-minimal")

    iso_min = min(_finite(series, "iso_margin"), default=_NAN)
    add("isoperimetric", minimal and len(valid) > 0,
        bool(iso_min >= TOLERANCES["iso_margin"]), iso_min, "iso_margin",
        f"min margin {iso_min:.3e}")

    ratio_inc = min((b - a for a, b in zip(ratios, ratios[1:])),
                    default=_NAN)
    add("ratio_monotone", minimal and len(valid) > 1,
        bool(ratio_inc >= -TOLERANCES["ratio_slack"]), ratio_inc,
        "ratio_slack",
        f"smallest consecutive increment {ratio_inc:.3e}")

    # Decay of the boundary second-form maximum.
    tail = [rec.max_B for rec in valid[-5:]]
    # Vanishing means the tail ends under the cap and has genuinely come
    # down from where it started (a flat zero tail trivially qualifies).
    decay_ok = (len(tail) >= 2
                and tail[-1] < TOLERANCES["decay_cap"]
                and tail[-1] <= 0.75 * tail[0] + 1e-6)
    add("curvature_decay", minimal and len(tail) >= 2, decay_ok,
        tail[-1] if tail else _NAN, "decay_cap",
        f"boundary max |B| tail {['%.3f' % x for x in tail]}",
        gating=False)

    # The comparison inequality and, for curved ambients, the equality.
    co_applicable = (minimal and not diverged and chi is not None
                     and not math.isnan(sup_growth))
    co_margin = _NAN
    if co_applicable:
        co_margin = R_end / (4.0 * math.pi) - sup_growth + chi
    add("chern_osserman", co_applicable,
        bool(co_margin >= TOLERANCES["co_margin"]), co_margin, "co_margin",
        f"R/4pi - sup + chi = {co_margin:+.4f}" if co_applicable else "")
    # Diagnostic only: in a hyperbolic ambient the gap converges to the
    # limit defect over 2 pi rather than to zero, and even at b = 0 it
    # measures distance from a limit that finite t need not reach.
    add("chern_osserman_equality_gap", co_applicable,
        bool(abs(co_margin) <= TOLERANCES["co_equality"])
        if co_applicable else None,
        abs(co_margin) if co_applicable else _NAN, "co_equality",
        "distance from equality at t_max",
        gating=False)

    # The defect verdicts are reported for every surface so the verdict
    # list has one shape everywhere; they only apply to a minimal surface
    # in a curved ambient.
    G_b = _NAN
    G_b_spread = _NAN
    gb_applicable = bool(form.curved) and minimal
    gbs = []
    settled = []
    if gb_applicable:
        gbs = [rec.gb for rec in valid]
        if len(gbs) >= 3:
            window = gbs[-3:]
            G_b = float(np.mean(window))
            G_b_spread = float(np.max(window) - np.min(window))
        settled = [abs(rec.gb_chain_residual) for rec in valid
                   if rec.t > series.R0]
    resolved = (not math.isnan(G_b)
                and G_b_spread <= TOLERANCES["gb_spread"])
    add("gb_tail_resolved", gb_applicable and len(gbs) >= 3, resolved,
        G_b_spread, "gb_spread",
        f"G_b = {G_b:+.5f} +- {G_b_spread:.2e}" if resolved else
        "limit not resolved at t_max", gating=False)
    add("gb_nonnegative", gb_applicable and not math.isnan(G_b),
        bool(G_b >= TOLERANCES["gb_floor"]), G_b, "gb_floor")
    chain = max(settled) if settled else _NAN
    add("gb_chain_identity", bool(settled),
        bool(chain <= TOLERANCES["gb_chain"]), chain, "gb_chain",
        "per-radius defect identity vs chi/R/ratio rearrangement")
    eq_applicable = (gb_applicable and co_applicable
                     and not math.isnan(G_b))
    eq_residual = _NAN
    if eq_applicable:
        eq_residual = abs(-chi - (R_end / (4.0 * math.pi) - sup_growth
                                  - G_b / (2.0 * math.pi)))
    add("chern_osserman_equality", eq_applicable,
        bool(eq_residual <= TOLERANCES["co_eq_residual"]) if eq_applicable
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
            f"no radius in [t_last/{PARTNER_SPAN:g}, t_last/2] past "
            f"R0 = {series.R0:.4g} to measure a doubling")

    return VerdictReport(
        surface=surface_name,
        ambient=ambient,
        declared_minimal=declared_minimal,
        measured_minimal=measured_minimal,
        max_normH=max_normH,
        pole=[float(x) for x in np.asarray(field.pole).ravel()],
        grid=(field.spec.n_u, field.spec.n_v),
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
