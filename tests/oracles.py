"""Test references: independent routes to what the package computes.

No run of the package calls these; the tests hold its results against
them.

* `gauss_equation_residual`, `laplacian_r` and
  `radial_laplacian_identity`: the Gauss-equation residual on minimal
  charts, a finite-difference Laplacian of the extrinsic distance, and
  the closed form it must match;
* `check_surface`: sampled model membership, tangency and minimality of
  a chart;
* `cell_cases` and `corner_views`: the marching-squares case of every
  cell of a grid, the whole-grid reference for the field's sorted band;
* `geodesic_step`: a point at given arclength along a space-form
  geodesic;
* `geodesic_curvature_direct`: boundary geodesic curvature from the
  positions of the level curve alone, traced through each sample
  (`frame_subset` takes the frames of the samples it refines);
* `make` and `read_report_json`: short forms of
  ``catalog.lookup(name).surface(t_max, params)`` and of reading a
  ``report.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from extballs.catalog import lookup
from extballs.domains.balls import BoundarySamples
from extballs.domains.contours import project_to_level
from extballs.errors import ImmersionError, PoleSingularity
from extballs.immersion import (FrameBatch, ParametricSurface, frames,
                                radial_frames)
from extballs.space_forms import SpaceForm


def make(name: str, t_max: float | None = None,
         params: dict | None = None) -> ParametricSurface:
    """Build a catalog surface sized for balls up to radius t_max."""
    return lookup(name).surface(t_max, params)


def read_report_json(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def geodesic_step(form: SpaceForm, x: np.ndarray, v: np.ndarray,
                  s) -> np.ndarray:
    """Point at arclength s along the geodesic from x with unit tangent v."""
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if not form.curved:
        return x + s * v
    ks = form.kappa * s
    return np.cosh(ks) * x + (np.sinh(ks) / form.kappa) * v


def corner_views(a: np.ndarray, periodic_u: bool):
    """Views (c0, c1, c2, c3) of a node array at each cell's corners.

    On a u-periodic grid row 0 is appended, so the last column wraps.
    """
    if periodic_u:
        a = np.concatenate([a, a[:1, :]], axis=0)
    return a[:-1, :-1], a[1:, :-1], a[1:, 1:], a[:-1, 1:]


def cell_cases(r: np.ndarray, t: float, periodic_u: bool) -> np.ndarray:
    """Marching-squares case of every cell against the level {r = t}.

    Bit k is set when corner k has r < t: 0 is outside the ball, 15
    inside, and 1-14 cut by the level curve.
    """
    c0, c1, c2, c3 = corner_views(r, periodic_u)
    return ((c0 < t).astype(np.int16) + 2 * (c1 < t).astype(np.int16)
            + 4 * (c2 < t).astype(np.int16) + 8 * (c3 < t).astype(np.int16))


def check_surface(surface: ParametricSurface, n: int = 200,
                  seed: int = 0, max_r: float | None = None) -> dict:
    """Sample invariants of a chart: model membership, tangency, minimality.

    Returns the sampled maxima so callers can assert against their own
    tolerances.  With `max_r` the samples are rejection-drawn at extrinsic
    distance at most max_r from the chart's default pole, and too small a
    region raises ImmersionError.  Outside such a region the hyperboloid
    components reach e^r: max |H| on the hyperbolic catenoid is 8e-13 at
    r in (7, 8) but 3e-8 at r in (10, 11).
    """
    rng = np.random.default_rng(seed)
    (u0, u1), (v0, v1) = surface.domain
    pad_u = 0.0 if surface.periodic_u else 0.05 * (u1 - u0)
    pad_v = 0.05 * (v1 - v0)

    def draw(k):
        return (rng.uniform(u0 + pad_u, u1 - pad_u, k),
                rng.uniform(v0 + pad_v, v1 - pad_v, k))

    U, V = draw(n)
    if max_r is not None:
        pole = surface.default_pole()
        keep_u, keep_v = [], []
        total = 0
        for _ in range(200):
            r = surface.form.distance(pole, surface.eval(U, V))
            sel = r <= max_r
            keep_u.append(U[sel])
            keep_v.append(V[sel])
            total += int(np.count_nonzero(sel))
            if total >= n:
                break
            U, V = draw(n)
        else:
            raise ImmersionError(
                f"could not sample {n} chart points with r <= {max_r} "
                f"on {surface.label!r}"
            )
        U = np.concatenate(keep_u)[:n]
        V = np.concatenate(keep_v)[:n]
    form = surface.form
    fb = frames(surface, U, V)
    out = {
        "max_normH": float(np.max(np.abs(fb.H))),
        "min_detg": float(np.min(fb.detg)),
        "max_tangency": 0.0,
        "max_model_residual": 0.0,
        "max_B_tangency": 0.0,
    }
    # Tangency defect of the normalized second form: components of
    # B(e_i, e_j) = b_ij N along a g-orthonormal tangent frame.  This is
    # the scale at which the defect feeds contracted quantities (H, |B|^2,
    # boundary curvature integrands); raw ambient products would grow as
    # e^{3r} on hyperboloid charts and measure nothing useful.
    e1 = fb.Fu / np.sqrt(fb.g11)
    t2 = fb.Fv - (fb.g12 / fb.g11) * fb.Fu
    e2 = t2 / np.sqrt(np.maximum(form.inner(t2, t2), 1e-300))
    s11 = fb.g11
    s12 = np.sqrt(fb.g11 * fb.g22)
    s22 = fb.g22
    out["max_B_tangency"] = float(np.max(np.stack([
        np.abs(bij * form.inner(fb.N, e)) / s
        for bij, s in ((fb.b11, s11), (fb.b12, s12), (fb.b22, s22))
        for e in (e1, e2)
    ])))
    if form.curved:
        F = fb.F
        out["max_model_residual"] = float(np.max(form.point_residual(F)))
        tang = np.stack([form.inner(F, fb.Fu), form.inner(F, fb.Fv)])
        scale = 1.0 + np.abs(form.b) * np.einsum("k...,k...->...", F, F)
        out["max_tangency"] = float(np.max(np.abs(tang) / scale))
    return out


def gauss_equation_residual(surface: ParametricSurface, u, v) -> np.ndarray:
    """|K - (b - |B|^2 / 2)|, which vanishes identically on minimal surfaces."""
    fb = frames(surface, u, v)
    return np.abs(fb.K - (surface.form.b - 0.5 * fb.normBsq))


def _metric_entries(surface: ParametricSurface, U, V):
    _, Fu, Fv = surface.jet(np.asarray(U, dtype=np.float64),
                            np.asarray(V, dtype=np.float64), 1)
    ip = surface.form.inner
    return np.stack([ip(Fu, Fu), ip(Fu, Fv), ip(Fv, Fv)], axis=-1)


def _fd_step(surface: ParametricSurface, U, V, h: float) -> float:
    """Shrink a finite-difference step near non-periodic chart edges."""
    (u0, u1), (v0, v1) = surface.domain
    margin = min(float(np.min(V - v0)), float(np.min(v1 - V)))
    if not surface.periodic_u:
        margin = min(margin, float(np.min(U - u0)), float(np.min(u1 - U)))
    if margin >= 2.0 * h:
        return h
    if margin < 4e-8:
        raise ImmersionError(
            f"chart point too close to the domain edge (margin {margin:.2e})"
        )
    return margin / 2.0


def laplacian_r(surface: ParametricSurface, U, V, pole: np.ndarray,
                h_fd: float = 5e-4) -> np.ndarray:
    """Intrinsic Laplacian of the extrinsic distance, by finite differences.

    Uses the divergence form (1/W) d_i (W g^{ij} d_j r) with W = sqrt(det g);
    metric factors are analytic, only r is differenced.  Points with
    r < 1e-3 are rejected as too close to the pole.
    """
    form = surface.form
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    pole = np.asarray(pole, dtype=np.float64)
    h = _fd_step(surface, U, V, 2.0 * h_fd) / 2.0

    def rr(du, dv):
        F = surface.eval(U + du * h, V + dv * h)
        return form.distance(pole, F)

    r00 = rr(0, 0)
    if np.any(r00 < 1e-3):
        raise PoleSingularity("laplacian_r requested too close to the pole")

    def flux(du, dv, axis):
        """W (g^{a1} r_u + g^{a2} r_v) at the offset point, a = axis."""
        g = _metric_entries(surface, U + du * h, V + dv * h)
        g11, g12, g22 = g[..., 0], g[..., 1], g[..., 2]
        detg = g11 * g22 - g12 * g12
        W = np.sqrt(detg)
        r_u = (rr(du + 1, dv) - rr(du - 1, dv)) / (2.0 * h)
        r_v = (rr(du, dv + 1) - rr(du, dv - 1)) / (2.0 * h)
        if axis == 0:
            return W * (g22 * r_u - g12 * r_v) / detg
        return W * (-g12 * r_u + g11 * r_v) / detg

    g0 = _metric_entries(surface, U, V)
    W0 = np.sqrt(g0[..., 0] * g0[..., 2] - g0[..., 1] ** 2)
    div = (flux(1, 0, 0) - flux(-1, 0, 0) + flux(0, 1, 1) - flux(0, -1, 1))
    return div / (2.0 * h * W0)


def radial_laplacian_identity(surface: ParametricSurface, U, V,
                              pole: np.ndarray) -> np.ndarray:
    """Closed form for the radial Laplacian on a surface in a space form:

        (2 - |grad^P r|^2) h_b(r) + 2 H <radial, N>.
    """
    fb = frames(surface, U, V, pole=pole)
    hb = surface.form.h(fb.r)
    return ((2.0 - fb.normGradPr ** 2) * hb
            + 2.0 * fb.H * surface.form.inner(fb.radial, fb.N))


# 9-point central first- and second-derivative stencils, 8th order.
_C1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0,
                4 / 5, -1 / 5, 4 / 105, -1 / 280])
_C2 = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72,
                8 / 5, -1 / 5, 8 / 315, -1 / 560])
_TRACE_SIDE = 4
# Step arbitration of the trace (see geodesic_curvature_direct): the
# per-sample agreement that settles a step, and the most halvings an
# unsettled sample may take.
_KG_TOL = 1e-6
_MAX_HALVINGS = 4


def _tangent_unit(fb) -> np.ndarray:
    return fb.rotate90(fb.gradPr / fb.normGradPr[:, None])


def _trace_step(field, pts: np.ndarray, e: np.ndarray, step: float,
                r_target: np.ndarray) -> np.ndarray:
    """Advance points one signed arclength step along the level curves.

    ``e`` is the unit level-curve tangent at ``pts``.  Midpoint rule on
    the unit tangent field, then Newton projections back to each point's
    own level value.
    """
    mid = pts + (0.5 * step) * e
    fbm = radial_frames(field.surface, mid[:, 0], mid[:, 1], pole=field.pole)
    return project_to_level(field, r_target, pts + step * _tangent_unit(fbm))


def _trace_kg(field, samples, delta: float) -> np.ndarray:
    """One trace pass: march in the chart, differentiate in the ambient.

    The first step leaves each sample along its stored tangent
    ``samples.e``; each later step takes its tangent from a first-order
    frame at the projected point.  The stencils act on the ambient
    positions of the traced points.  Pairing the raw second derivative
    with the outward normal needs no curvature correction in either
    ambient model: the flat model has none, and on the hyperboloid the
    position-vector term of the covariant acceleration is killed by
    <gamma, nu> = 0.
    """
    surf = field.surface
    fb0 = samples.frame
    r_target = fb0.r
    traj = np.empty((2 * _TRACE_SIDE + 1,) + fb0.F.shape)
    traj[_TRACE_SIDE] = fb0.F
    for sign in (1, -1):
        pts, e = samples.uv, samples.e
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

    vel = np.tensordot(_C1, traj, axes=1) / delta
    acc = np.tensordot(_C2, traj, axes=1) / (delta * delta)
    ip = surf.form.inner
    nu = fb0.ambient_gradPr() / fb0.normGradPr
    return -ip(acc, nu) / ip(vel, vel)


def frame_subset(fb: FrameBatch, idx) -> FrameBatch:
    """The frames of the points ``idx`` of a batch: the last axis of its
    ambient vectors and scalars, the first of its chart vector gradPr."""
    return FrameBatch(**{k: None if v is None
                         else v[idx] if k == "gradPr" else v[..., idx]
                         for k, v in vars(fb).items()})


def geodesic_curvature_direct(field, samples) -> np.ndarray:
    """Boundary geodesic curvature by differentiating the curve itself.

    Marches 4 steps each way from every sample, projecting every step
    back onto the sample's level, then applies 8th-order stencils for
    velocity and acceleration to the ambient positions of the traced
    points; the normal acceleration over the squared speed is
    parametrization-invariant.  Only the positions enter, so an error in
    the samples' tangents e moves this route at second order and the
    frame routes, which read e, at first.

    Two passes at 2*delta and delta = 1.5 grid steps arbitrate per
    sample: agreement settles a sample at the coarser pass, and clear
    disagreement sends it into a chain of at most ``_MAX_HALVINGS``
    halvings, which keeps refining while the refinements contract and
    freezes once they stop contracting at small scale.  That chain's
    rule misreads a bend still outside the stencil's asymptotic range:
    two refinements that agree on a plateau settle it, and one that
    moves no less than the last freezes it, so near a neck the result
    can sit 1e-5 to 1e-4 from the formula.  And where position noise
    grows under halving (tiny balls, t near 9 on the hyperboloid) the
    chain takes the growth for a bend and halves into the noise.  Use
    it where it resolves: away from critical radii and at t >= 1.
    """
    delta = 1.5 * max(field.h_u, field.h_v)
    coarse = _trace_kg(field, samples, 2.0 * delta)
    kg = _trace_kg(field, samples, delta)
    m0 = np.abs(kg - coarse)
    quiet = m0 <= _KG_TOL
    kg[quiet] = coarse[quiet]
    active = np.flatnonzero(m0 > 5.0 * _KG_TOL)

    move_prev = m0.copy()
    for _ in range(_MAX_HALVINGS):
        if len(active) == 0:
            break
        delta *= 0.5
        part = BoundarySamples(samples.uv[active], samples.weight[active],
                               samples.e[active],
                               frame_subset(samples.frame, active))
        refined = _trace_kg(field, part, delta)
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
