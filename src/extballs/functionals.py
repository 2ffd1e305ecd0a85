"""Per-radius functionals over extrinsic balls.

Everything here consumes an extracted ball and produces scalars: total
squared second-form curvature, boundary geodesic curvature by two
independent routes, the Gauss-Bonnet estimate of the Euler
characteristic, the area ratio against the model disk, the comparison
bounds, the per-radius defect integrand, and the boundary maximum of the
second-form norm.  ``radius_record`` gathers them into the record of one
radius.

The two geodesic-curvature routes are the module's central cross-check.
Both evaluate the intrinsic Hessian of r on the boundary tangent e, which
along the level curve {r = t} is |tangential gradient| times k_g (the
Hessian comparison of L. Jorge and D. Koutroufiotis, Amer. J. Math. 103
(1981), restricted to a level curve).  The Hessian route differentiates
the exact first partials of r in the chart and subtracts the Christoffel
term; the formula route evaluates the ambient comparison in pointwise
frame data (ambient-sphere mean curvature, second form, and the radial
gradient split).  They share one sign convention: nu is the outward unit
normal along the boundary and k_g = -<acc, nu> for an arclength
parametrization, so a round disk in the plane has k_g = 1/t.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dfield

import numpy as np

from .domains.balls import BoundarySamples, ExtrinsicBall, coarea_integral
from .domains.field import DistanceField
from .errors import ConfigError
from .immersion import BATCH_POINTS, radial_frames

__all__ = [
    "EULER_ALPHAS",
    "RadiusRecord",
    "RadiusSeries",
    "divergence_bound_sides",
    "euler_bound_sides",
    "gb_integrand",
    "geodesic_curvature_formula",
    "geodesic_curvature_hessian",
    "radius_record",
]

# 9-point central first-derivative stencil, 8th order, as weights of
# the differences f(x + k*delta) - f(x - k*delta), k = 1..4.
_C1 = (4 / 5, -1 / 5, 4 / 105, -1 / 280)
_OFFSETS = np.array([1, 2, 3, 4, -1, -2, -3, -4], dtype=np.float64)
# The stencil step of the Hessian route, in grid steps max(h_u, h_v).
# Truncation falls as step^8: at the 256^2 hyperbolic catenoid's neck
# radius it reads 7.4e-6 at half a step and 3.5e-8 at a quarter, and the
# float floor of the frame data (2.9e-8 at t = 9) does not move with it.
_HESS_STEP = 0.25
# Samples per radial_frames call: 16 stencil points each.
_HESS_CHUNK = BATCH_POINTS // 2 // 16


def _stencil_d1(f: np.ndarray, delta: float) -> np.ndarray:
    """Derivative at offset 0 from values at ``_OFFSETS`` (first axis)."""
    return sum(c * (f[k] - f[k + 4]) for k, c in enumerate(_C1)) / delta


def _radial_hessian(field: DistanceField, uv: np.ndarray,
                    delta: float) -> tuple[np.ndarray, ...]:
    """Chart second partials (r_uu, r_uv, r_vv) of r at chart points.

    The exact first partials r_i = <radial, F_i> are read at the stencil
    offsets along u and along v, and differenced once; r_uv averages its
    two readings.
    """
    surf, ip = field.surface, field.surface.form.inner
    step = delta * _OFFSETS[:, None]
    out = []
    for lo in range(0, len(uv), _HESS_CHUNK):
        u, v = uv[lo:lo + _HESS_CHUNK].T
        U = np.concatenate([u + step, np.tile(u, (8, 1))])
        V = np.concatenate([np.tile(v, (8, 1)), v + step])
        fb = radial_frames(surf, U, V, pole=field.pole)
        r_u, r_v = ip(fb.radial, fb.Fu), ip(fb.radial, fb.Fv)
        out.append((_stencil_d1(r_u[:8], delta),
                    0.5 * (_stencil_d1(r_v[:8], delta)
                           + _stencil_d1(r_u[8:], delta)),
                    _stencil_d1(r_v[8:], delta)))
    return tuple(np.concatenate(part) for part in zip(*out))


def geodesic_curvature_hessian(field: DistanceField,
                               samples: BoundarySamples) -> np.ndarray:
    """Boundary geodesic curvature from the intrinsic Hessian of r.

    Along the level curve {r = t} with unit tangent e,
    k_g = Hess r(e, e) / |tangential gradient|, and in the chart
    Hess r(e, e) = e^i e^j (r_ij - <F_ij, grad r>), because the
    Christoffel term Gamma^k_ij r_k is the tangential part of F_ij
    paired with the gradient (in the Minkowski form on the hyperboloid
    too, since F is orthogonal to every tangent).  The second partials
    r_ij come from the exact first partials by an 8th-order stencil of
    step ``_HESS_STEP`` grid steps, and F_ij from one 2-jet per sample.
    Neither h(t), N nor the second form enters, which makes this route
    an independent check of the formula route.
    """
    fb = samples.frame
    ip = field.surface.form.inner
    uv = samples.uv
    delta = _HESS_STEP * max(field.h_u, field.h_v)
    r_uu, r_uv, r_vv = _radial_hessian(field, uv, delta)
    _, _, _, F_uu, F_uv, F_vv = field.surface.jet(uv[:, 0], uv[:, 1], 2)
    grad = fb.ambient_gradPr()
    e1, e2 = samples.e[:, 0], samples.e[:, 1]
    hess = (e1 * e1 * (r_uu - ip(F_uu, grad))
            + 2.0 * e1 * e2 * (r_uv - ip(F_uv, grad))
            + e2 * e2 * (r_vv - ip(F_vv, grad)))
    return hess / fb.normGradPr


def _normal_term(form, samples: BoundarySamples) -> np.ndarray:
    """<B(e, e), perp gradient of r> = b(e, e) <N, radial> per sample."""
    fb = samples.frame
    return fb.second_form(samples.e, samples.e) * form.inner(fb.N, fb.radial)


def geodesic_curvature_formula(field: DistanceField,
                               samples: BoundarySamples) -> np.ndarray:
    """Boundary geodesic curvature from pointwise frame data only.

    k_g = [h(t) + <B(e, e), perp gradient of r>] / |tangential gradient|
    with h the inward mean curvature of the ambient geodesic t-sphere.
    No differentiation is involved, which makes this route an
    independent check of the Hessian route.
    """
    fb = samples.frame
    form = field.surface.form
    return (form.h(fb.r) + _normal_term(form, samples)) / fb.normGradPr


def divergence_bound_sides(field: DistanceField, ball: ExtrinsicBall,
                           coarea: float) -> dict:
    """Two sides of the minimal-surface radial divergence bound.

    lhs integrates the squared normal share of the radial gradient over
    the boundary, weighted by the coarea factor; rhs is the coarea
    integral minus the comparison-sphere mean curvature times the area.
    For minimal surfaces lhs <= rhs.
    """
    fb = ball.samples.frame
    lhs = float(np.sum(ball.samples.weight
                       * fb.normGradPerp ** 2 / fb.normGradPr))
    rhs = float(coarea - field.surface.form.h(ball.t) * ball.area)
    return {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs}


def gb_integrand(field: DistanceField, ball: ExtrinsicBall,
                 coarea: float) -> float:
    """Per-radius integrand whose large-t limit is the defect G_b.

    h(t) * V_b(t) * d/dt[area / V_b(t)] plus the boundary integral of
    <B(e,e), perp gradient of r> / |tangential gradient|.  The ratio
    derivative expands by the quotient rule into the coarea integral
    and closed-form comparison data, so no finite differencing in t is
    involved.  The bracket cancels two terms that grow as e^t, and their
    quadrature and roundoff errors do not cancel: gb carries a floor of
    about 2e-9 of either term.  On the totally geodesic h2_in_h3, where
    gb is 0, that reads gb = -1.65e-5 at t = 8 at catalog defaults (the
    terms are 9.4e3 each); ROADMAP item 8 removes the cancellation.
    """
    form = field.surface.form
    if not form.curved:
        raise ConfigError("the limit defect is defined for curved "
                          "ambients only (b < 0)")
    h = float(form.h(ball.t))
    V = float(form.ball_area(ball.t))
    Vp = float(form.circle_length(ball.t))
    normal_term = float(np.sum(
        ball.samples.weight * _normal_term(form, ball.samples)
        / ball.samples.frame.normGradPr))
    return h * (coarea - ball.area * Vp / V) + normal_term


# The weights at which runs check the Euler-term growth bound, which
# holds for every alpha in (0, 2).
EULER_ALPHAS = (0.25, 0.5, 1.0, 1.5)


def euler_bound_sides(form, t: float, alpha: float, *, R: float,
                      R_prime: float, area: float, coarea: float,
                      chi: int) -> dict:
    """Two sides of the Euler-term growth bound at weight alpha.

    With f2 = alpha * h(t):
      lhs = -2 pi chi + (b + f2 h / 2) area + (h - f2 / 2) coarea
      rhs = R / 2 + R' / (2 f2)
    and the bound asserts lhs <= rhs on minimal surfaces.  Pure
    arithmetic in already-measured scalars, so the schedule derivative
    R' can be filled in before this runs.
    """
    if not (0.0 < alpha < 2.0):
        raise ConfigError(f"alpha {alpha} outside (0, 2)")
    h = float(form.h(t))
    f2 = alpha * h
    lhs = (-2.0 * math.pi * chi
           + (form.b + 0.5 * f2 * h) * area
           + (h - 0.5 * f2) * coarea)
    rhs = 0.5 * R + R_prime / (2.0 * f2)
    return {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs}


# ---------------------------------------------------------------------------
# Per-radius records


_NAN = float("nan")

# A doubling partner must lie in [t_last / PARTNER_SPAN, t_last / 2].  The
# span admits a geometric schedule of ratio 1.74 (partner 3.03x down) and
# rejects sparser ones (3.46x down and beyond).
PARTNER_SPAN = 3.25


@dataclass
class RadiusRecord:
    """Everything measured at one radius; NaN marks not-computed."""

    t: float
    skipped: bool = False
    note: str = ""
    area: float = _NAN
    length: float = _NAN
    coarea: float = _NAN
    ends: int = 0
    min_grad: float = _NAN
    R: float = _NAN
    R_prime: float = _NAN
    intK: float = _NAN
    intKg: float = _NAN
    chi_hat: float = _NAN
    kg_gap_max: float = _NAN
    max_B: float = _NAN
    ratio: float = _NAN
    iso_margin: float = _NAN
    div_margin: float = _NAN
    euler_margins: dict = dfield(default_factory=dict)
    gb: float = _NAN
    gb_chain_residual: float = _NAN

    def as_dict(self) -> dict:
        """Flat row with one `euler_margin_aNNN` column per `EULER_ALPHAS`
        weight, NaN where the margin was not computed."""
        out = dataclasses.asdict(self)
        margins = out.pop("euler_margins")
        for alpha in EULER_ALPHAS:
            out[f"euler_margin_a{int(round(100 * alpha)):03d}"] = \
                margins.get(alpha, _NAN)
        return out


def radius_record(field: DistanceField, ball: ExtrinsicBall,
                  minimal: bool) -> RadiusRecord:
    """Every per-radius measure of one extracted ball.

    The boundary turning intKg integrates the formula route's k_g, and
    kg_gap_max is that route's largest distance from the Hessian route.
    The comparison margins and the defect integrand are filled for
    minimal surfaces only, the defect in a curved ambient only; the rest
    is filled for every ball.
    """
    t = ball.t
    R = ball.integrals["normBsq"]
    intK = ball.integrals["K"]
    formula = geodesic_curvature_formula(field, ball.samples)
    hessian = geodesic_curvature_hessian(field, ball.samples)
    rec = RadiusRecord(t=t, area=ball.area, length=ball.boundary_length,
                       ends=ball.n_components, min_grad=ball.min_grad,
                       R=R, intK=intK, coarea=coarea_integral(ball),
                       intKg=float(np.sum(ball.samples.weight * formula)),
                       kg_gap_max=float(np.max(np.abs(hessian - formula))))
    form = field.surface.form
    rec.chi_hat = (intK + rec.intKg) / (2.0 * math.pi)
    rec.max_B = float(np.sqrt(np.max(ball.samples.frame.normBsq)))
    # Area over the area of the model geodesic disk of radius t.
    model_area = float(form.ball_area(t))
    rec.ratio = ball.area / model_area
    if minimal:
        rec.div_margin = divergence_bound_sides(
            field, ball, rec.coarea)["margin"]
        # Isoperimetric margin: length/area minus the model disk's
        # quotient, nonnegative on minimal surfaces, zero on model disks.
        rec.iso_margin = (ball.boundary_length / ball.area
                          - float(form.circle_length(t)) / model_area)
        if form.curved:
            rec.gb = gb_integrand(field, ball, rec.coarea)
            rec.gb_chain_residual = rec.gb - (
                2.0 * math.pi * rec.chi_hat + 0.5 * R
                - 2.0 * math.pi * rec.ratio)
    return rec


@dataclass
class RadiusSeries:
    """Records over an increasing radius schedule for one field."""

    records: list
    R0: float = _NAN
    critical_values: list = dfield(default_factory=list)

    @property
    def valid(self) -> list:
        return [rec for rec in self.records if not rec.skipped]

    def fill_R_prime(self) -> None:
        """Derivative of R on the schedule by local parabola fits."""
        recs = self.valid
        if len(recs) < 2:
            return
        ts = np.array([rec.t for rec in recs])
        Rs = np.array([rec.R for rec in recs])
        for i, rec in enumerate(recs):
            if i == 0:
                rec.R_prime = (Rs[1] - Rs[0]) / (ts[1] - ts[0])
            elif i == len(recs) - 1:
                rec.R_prime = (Rs[-1] - Rs[-2]) / (ts[-1] - ts[-2])
            else:
                t0, t1, t2 = ts[i - 1:i + 2]
                R0, R1, R2 = Rs[i - 1:i + 2]
                rec.R_prime = (
                    R0 * (t1 - t2) / ((t0 - t1) * (t0 - t2))
                    + R1 * (2 * t1 - t0 - t2) / ((t1 - t0) * (t1 - t2))
                    + R2 * (t1 - t0) / ((t2 - t0) * (t2 - t1)))

    def chi_plateau(self) -> dict:
        """Integer plateau of chi_hat over the settled part of the series."""
        recs = [rec for rec in self.valid if rec.t > self.R0]
        if not recs:
            return {"chi": 0, "max_residual": _NAN, "constant": False,
                    "count": 0}
        rounded = [int(round(rec.chi_hat)) for rec in recs]
        residual = max(abs(rec.chi_hat - ri)
                       for rec, ri in zip(recs, rounded))
        constant = len(set(rounded)) == 1
        return {"chi": rounded[-1], "max_residual": residual,
                "constant": constant, "count": len(recs)}

    def R_growth_over_doubling(self) -> float:
        """R at the last radius minus R at its partner a doubling below.

        The partner is the largest t <= t_last / 2.  It must also reach
        t_last / PARTNER_SPAN: on a sparse schedule the radius below half
        can sit several doublings down, and the difference then reads a
        slowly settling finite total as divergence.  It must reach R0 as
        well, past which `chi_plateau` counts radii as settled: below R0
        the ball is still taking in the neck, and R gains that curvature
        however the ends behave.  A NaN R0 sets no bound.  NaN without a
        partner.
        """
        recs = self.valid
        if len(recs) < 2:
            return _NAN
        t_last = recs[-1].t
        half = [rec for rec in recs if rec.t <= 0.5 * t_last + 1e-12]
        if (not half or half[-1].t < t_last / PARTNER_SPAN - 1e-12
                or half[-1].t < self.R0):
            return _NAN
        return recs[-1].R - half[-1].R
