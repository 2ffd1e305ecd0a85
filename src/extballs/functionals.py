"""Per-radius functionals over extrinsic balls.

Everything here consumes an extracted ball and produces scalars: total
squared second-form curvature, boundary geodesic curvature by two
independent routes, the Gauss-Bonnet estimate of the Euler
characteristic, the area ratio against the model disk, the comparison
bounds, the per-radius defect integrand, and the boundary maximum of the
second-form norm.  ``radius_record`` gathers them into the record of one
radius.

The two geodesic-curvature routes are the module's central cross-check.
The trace route differentiates the boundary curve itself: it marches a
short arc through each sample along the level-curve tangent field,
projects every step back onto the level set, and applies high-order
finite differences to the ambient positions of the traced points.  The
frame route evaluates a closed-form expression in pointwise frame data
(ambient-sphere mean curvature, second form, and the radial gradient
split).  They share one sign convention: nu is the outward unit normal
along the boundary and k_g = -<acc, nu> for an arclength
parametrization, so a round disk in the plane has k_g = 1/t.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field as dfield

import numpy as np

from .domains.balls import BoundarySamples, ExtrinsicBall, coarea_integral
from .domains.contours import project_to_level
from .domains.field import DistanceField
from .errors import ConfigError
from .immersion import BATCH_POINTS, batch_map, radial_frames

__all__ = [
    "EULER_ALPHAS",
    "RadiusRecord",
    "RadiusSeries",
    "divergence_bound_sides",
    "euler_bound_sides",
    "gb_integrand",
    "geodesic_curvature_direct",
    "geodesic_curvature_formula",
    "kg_gaps",
    "radius_record",
]

# 9-point central first- and second-derivative stencils, 8th order.
_C1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0,
                4 / 5, -1 / 5, 4 / 105, -1 / 280])
_C2 = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72,
                8 / 5, -1 / 5, 8 / 315, -1 / 560])
_TRACE_SIDE = 4
# Step arbitration of the trace route (see geodesic_curvature_direct):
# the per-sample agreement that settles a step, and the most halvings an
# unsettled sample may take.
_KG_TOL = 1e-6
_MAX_HALVINGS = 4


def _tangent_unit(fb) -> np.ndarray:
    return fb.rotate90(fb.gradPr / fb.normGradPr[:, None])


def _trace_step(field: DistanceField, pts: np.ndarray, e: np.ndarray,
                step: float, r_target: np.ndarray) -> np.ndarray:
    """Advance points one signed arclength step along the level curves.

    ``e`` is the unit level-curve tangent at ``pts``.  Midpoint rule on
    the unit tangent field, then two Newton projections back to each
    point's own level value, which pins the normal drift near float
    precision while keeping the step map smooth.
    """
    mid = pts + (0.5 * step) * e
    fbm = radial_frames(field.surface, mid[:, 0], mid[:, 1], pole=field.pole)
    return project_to_level(field, r_target, pts + step * _tangent_unit(fbm))


def _stencil(coef: np.ndarray, traj: np.ndarray,
             bounds: np.ndarray) -> np.ndarray:
    """Apply a stencil along the trajectory axis, one product per run.

    The BLAS product can round an array's last rows through a different
    kernel path than the rest, so where a sample sits in its array can
    move its result by an ulp.  Differencing each run (one ball's
    samples) as its own array makes a batch reproduce per-run calls
    bitwise.
    """
    parts = np.split(traj, bounds, axis=1)
    return np.concatenate([np.tensordot(coef, p, axes=1) for p in parts])


def _trace_kg(field: DistanceField, fb0, uv0: np.ndarray,
              delta: float, bounds: np.ndarray) -> np.ndarray:
    """One trace pass: march in the chart, differentiate in the ambient.

    Between steps only chart points and unit tangents are carried: the
    first step takes its tangent from the samples' own frames ``fb0``,
    and after each of the next steps one first-order frame at the
    projected point gives both the trajectory position and the next
    tangent; the last step needs a position only.  No frame batch
    outlives its step.

    The stencils act on ambient positions of the traced points.  Pairing
    the raw second derivative with the outward normal needs no
    curvature correction in either ambient model: the flat model has
    none, and on the hyperboloid the position-vector term of the
    covariant acceleration is killed by <gamma, nu> = 0.  Differencing
    ambient positions also sidesteps the poor scaling of chart
    coordinates far from the pole, where the chart representation of
    the curve has derivatives growing like cosh r even though the curve
    itself bends gently.
    """
    surf = field.surface
    r_target = fb0.r
    traj = np.empty((2 * _TRACE_SIDE + 1,) + fb0.F.shape)
    traj[_TRACE_SIDE] = fb0.F
    e0 = _tangent_unit(fb0)
    for sign in (1, -1):
        pts, e = uv0, e0
        for k in range(1, _TRACE_SIDE + 1):
            pts = _trace_step(field, pts, e, sign * delta, r_target)
            if k < _TRACE_SIDE:
                fb = radial_frames(surf, pts[:, 0], pts[:, 1],
                                   pole=field.pole)
                traj[_TRACE_SIDE + sign * k] = fb.F
                e = _tangent_unit(fb)
            else:
                traj[_TRACE_SIDE + sign * k] = surf.eval(pts[:, 0],
                                                         pts[:, 1])

    vel = _stencil(_C1, traj, bounds) / delta
    acc = _stencil(_C2, traj, bounds) / (delta * delta)

    ip = surf.form.inner
    nu = fb0.ambient_gradPr() / fb0.normGradPr[:, None]
    speed_sq = ip(vel, vel)
    return -ip(acc, nu) / speed_sq


def geodesic_curvature_direct(field: DistanceField,
                              samples: BoundarySamples,
                              runs: list[int] | None = None) -> np.ndarray:
    """Boundary geodesic curvature by differentiating the curve itself.

    Marches 4 steps each way from every sample, then applies 8th-order
    stencils for velocity and acceleration to the ambient positions of
    the traced points.  The result is parametrization-invariant because
    the normal acceleration is divided by the squared speed.  The march
    starts from the tangents of the samples' own frames and reuses the
    frame at each projected point for its position and next tangent, so
    a sample costs 15 first-order frames and 1 position per direction
    and pass.

    The step trades two error sources: stencil truncation shrinks
    256-fold per halving, while position noise (distance-evaluation
    jitter scaled by the metric, dominant far from the pole in a
    hyperbolic ambient) grows 4-fold.  Two passes at 2*delta and delta
    arbitrate per sample: agreement across that doubling certifies the
    step is past the truncation knee, in which case the coarser, quieter
    march wins; clear disagreement marks an underresolved bend (just
    past a critical radius boundaries turn on a scale the grid-tied step
    cannot see) and sends the sample into a halving chain that keeps
    refining while the refinements contract and freezes at the noise
    floor when they stop contracting at small scale.

    The 2*delta and delta passes are two `batch_map` tasks, so they run
    at once on two CPUs; the halving chain then runs serially.

    `runs` gives the lengths of consecutive sample runs (one per ball)
    in a batch of several balls; each run's result then equals a call
    on that run alone, bit for bit.  By default all samples are one run.
    """
    fb0 = samples.frame
    uv0 = samples.uv
    delta = 1.5 * max(field.h_u, field.h_v)
    starts = np.cumsum(runs)[:-1] if runs is not None else np.zeros(0, int)

    coarse, kg = batch_map(
        lambda step: _trace_kg(field, fb0, uv0, step, starts),
        (2.0 * delta, delta))
    m0 = np.abs(kg - coarse)
    quiet = m0 <= _KG_TOL
    kg[quiet] = coarse[quiet]
    active = np.flatnonzero(m0 > 5.0 * _KG_TOL)

    move_prev = m0.copy()
    for _ in range(_MAX_HALVINGS):
        if len(active) == 0:
            break
        delta *= 0.5
        refined = _trace_kg(field, fb0[active], uv0[active], delta,
                            np.searchsorted(active, starts))
        moved = np.abs(refined - kg[active])
        settled = moved <= _KG_TOL
        contracting = moved < move_prev[active]
        # Growth at small scale is the position-noise floor: freeze.
        # Growth at large scale is a still-underresolved bend: press on.
        diverging = ~contracting & (moved > 30.0 * _KG_TOL)
        take = ~settled & (contracting | diverging)
        kg[active[take]] = refined[take]
        move_prev[active[take]] = moved[take]
        active = active[take]
    return kg


def _normal_term(form, samples: BoundarySamples) -> np.ndarray:
    """<B(e, e), perp gradient of r> = b(e, e) <N, radial> per sample."""
    fb = samples.frame
    return fb.second_form(samples.e, samples.e) * form.inner(fb.N, fb.radial)


def geodesic_curvature_formula(field: DistanceField,
                               samples: BoundarySamples) -> np.ndarray:
    """Boundary geodesic curvature from pointwise frame data only.

    k_g = [h(t) + <B(e, e), perp gradient of r>] / |tangential gradient|
    with h the inward mean curvature of the ambient geodesic t-sphere.
    No curve differentiation is involved, which makes this route an
    independent check of the trace route.
    """
    fb = samples.frame
    form = field.surface.form
    return (form.h(fb.r) + _normal_term(form, samples)) / fb.normGradPr


def _sample_groups(balls: list[ExtrinsicBall]) -> list[list[ExtrinsicBall]]:
    """Consecutive balls in groups of at most ``BATCH_POINTS // 2`` samples.

    A group's two trace passes run at once, so together they hold at
    most ``BATCH_POINTS`` samples.  A ball with more samples than that
    forms a group of its own.
    """
    groups: list[list[ExtrinsicBall]] = []
    size = 0
    for ball in balls:
        n = len(ball.samples)
        if groups and size + n <= BATCH_POINTS // 2:
            groups[-1].append(ball)
            size += n
        else:
            groups.append([ball])
            size = n
    return groups


def kg_gaps(field: DistanceField, balls: list[ExtrinsicBall]) -> list[dict]:
    """`kg_gap` for several balls of one field, traced in groups.

    Returns one entry per ball, in order.  The trace route runs once per
    group of consecutive balls holding at most ``BATCH_POINTS // 2``
    boundary samples (a larger ball is traced alone, see
    `_sample_groups`), which bounds the trace's working set while
    sharing each call's overhead within a group.  Its
    step is set by the grid alone, each traced point keeps its own level
    value, the halving chain decides per sample and the stencils act per
    ball, so the result for each ball equals a call on that ball alone,
    bit for bit, however the balls are grouped.
    """
    out = []
    for group in _sample_groups(balls):
        samples = [b.samples for b in group]
        runs = [len(s) for s in samples]
        direct = geodesic_curvature_direct(
            field, BoundarySamples.concat(samples), runs=runs)
        for s, d in zip(samples, np.split(direct, np.cumsum(runs)[:-1])):
            formula = geodesic_curvature_formula(field, s)
            out.append({
                "direct": d,
                "formula": formula,
                "max_gap": float(np.max(np.abs(d - formula))),
                "intKg": float(np.sum(s.weight * formula)),
            })
    return out


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
    involved and the totally geodesic case lands on zero exactly.
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


def radius_record(field: DistanceField, ball: ExtrinsicBall, kg: dict,
                  minimal: bool) -> RadiusRecord:
    """Every per-radius measure of one extracted ball.

    ``kg`` is the ball's `kg_gaps` entry.  The comparison margins and the
    defect integrand are filled for minimal surfaces only, the defect in
    a curved ambient only; the rest is filled for every ball.
    """
    t = ball.t
    R = ball.integrals["normBsq"]
    intK = ball.integrals["K"]
    rec = RadiusRecord(t=t, area=ball.area, length=ball.boundary_length,
                       ends=ball.n_components, min_grad=ball.min_grad,
                       R=R, intK=intK, coarea=coarea_integral(ball),
                       intKg=kg["intKg"], kg_gap_max=kg["max_gap"])
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
