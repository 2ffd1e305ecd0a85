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
(1981), restricted to a level curve).  The Hessian route reads the
second partials of r and of the chart from one complex-step jet and
subtracts the Christoffel term; the formula route evaluates the ambient
comparison in pointwise frame data (ambient-sphere mean curvature,
second form, and the radial gradient split).  They share one sign
convention: nu is the outward unit normal along the boundary and
k_g = -<acc, nu> for an arclength parametrization, so a round disk in
the plane has k_g = 1/t.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dfield

import numpy as np

from .domains.balls import BoundarySamples, ExtrinsicBall, coarea_integral
from .domains.field import DistanceField
from .errors import ConfigError

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


def _radial_covector(form, o: np.ndarray, F: np.ndarray, Fu: np.ndarray,
                     Fv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chart partials (r_u, r_v) of r = distance(o, F) as plain bilinear
    sums, analytic at complex chart points: <F - o, F_i> / |F - o| in
    R^3, b <o, F_i>_M / (kappa sqrt(delta (2 + delta))) with
    delta = b <o, F>_M - 1 on the hyperboloid.  Summed elementwise, not
    by `@`, whose BLAS threads would contend with `batch_map`'s forks."""
    if form.curved:
        w = form.b * o[:, None] * np.array([[-1.0], [1.0], [1.0], [1.0]])
        delta = np.sum(w * F, axis=0) - 1.0        # b <o, F>_M - 1
        s = form.kappa * np.sqrt(delta * (2.0 + delta))
    else:
        w = F - o[:, None]
        s = np.sqrt(np.sum(w * w, axis=0))
    return np.sum(w * Fu, axis=0) / s, np.sum(w * Fv, axis=0) / s


def geodesic_curvature_hessian(field: DistanceField,
                               samples: BoundarySamples) -> np.ndarray:
    """Boundary geodesic curvature from the intrinsic Hessian of r.

    Along the level curve {r = t} with unit tangent e,
    k_g = Hess r(e, e) / |tangential gradient|, and in the chart
    Hess r(e, e) = e^i e^j (r_ij - <F_ij, grad r>), because the
    Christoffel term Gamma^k_ij r_k is the tangential part of F_ij
    paired with the gradient (in the Minkowski form on the hyperboloid
    too, since F is orthogonal to every tangent).  Both second-order
    terms come by complex step (W. Squire and G. Trapp, SIAM Rev. 40
    (1998)) from the order-1 jet and r_i at (u, v) + i eta e: the real
    parts are F_i and r_i, and the imaginary parts over eta are e^j F_ij
    and e^j r_ij, to rounding and with no difference taken.  The
    gradient g^-1 r_i and its norm are formed from those r_i, not read
    from the frame's radial split.  Neither h(t), N nor the second form
    enters, which makes this route an independent check of the formula
    route.
    """
    surf = field.surface
    eta = 1e-30
    e1, e2 = samples.e[:, 0], samples.e[:, 1]
    _, Fu, Fv = jet = surf.jet(samples.uv[:, 0] + 1j * eta * e1,
                               samples.uv[:, 1] + 1j * eta * e2, 1)
    if not all(np.iscomplexobj(x) for x in jet):
        raise ConfigError(f"chart {surf.label!r} returned a real jet at "
                          f"complex points; the Hessian route needs them")
    r_u, r_v = _radial_covector(surf.form, field.pole, *jet)
    fb = samples.frame
    w1, w2 = r_u.real, r_v.real
    a1 = (fb.g22 * w1 - fb.g12 * w2) / fb.detg
    a2 = (fb.g11 * w2 - fb.g12 * w1) / fb.detg
    grad = a1 * Fu.real + a2 * Fv.real
    hess = (e1 * r_u.imag + e2 * r_v.imag
            - surf.form.inner(e1 * Fu.imag + e2 * Fv.imag, grad)) / eta
    return hess / np.sqrt(a1 * w1 + a2 * w2)


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
