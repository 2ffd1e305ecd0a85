"""Immersion calculus for parametric surface charts.

A chart supplies exact first and second partials of the embedding
F : (u, v) -> ambient.  From those this module computes the induced metric,
the normal-valued second fundamental form, mean curvature vector, Gauss
curvature, Christoffel symbols, and the tangential/normal split of the
radial direction from a pole.  Everything is vectorized over point batches.
`radial_frames` stops at first order (metric and radial split) for callers
that need only r and its gradient; `frames` adds the second-order state.

For an ambient hyperboloid the coordinate second partials are corrected to
model-covariant derivatives before the normal projection: the position
vector is Minkowski-normal to the model, and <F_ij, F>_M = -g_ij by
differentiating tangency, so the correction is F_ij + b g_ij F.  Omitting
it silently corrupts the second fundamental form for b < 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ImmersionError, PoleSingularity
from .space_forms import SpaceForm

Jet = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray,
            np.ndarray]


@dataclass(frozen=True)
class ParametricSurface:
    """Immersed chart with analytic partials.

    `jet(U, V)` returns (F, F_u, F_v, F_uu, F_uv, F_vv), each an array of
    shape U.shape + (dim,).  The domain is a coordinate rectangle; a
    periodic flag marks directions whose chart wraps (evaluation outside
    the interval must then be well defined).
    """

    form: SpaceForm
    domain: tuple[tuple[float, float], tuple[float, float]]
    jet: Callable[[np.ndarray, np.ndarray], Jet]
    label: str
    minimal: bool
    periodic_u: bool = False
    periodic_v: bool = False
    default_pole_chart: tuple[float, float] = (0.0, 0.0)

    def eval(self, U, V) -> np.ndarray:
        return self.jet(np.asarray(U, dtype=np.float64),
                        np.asarray(V, dtype=np.float64))[0]

    def default_pole(self) -> np.ndarray:
        u0, v0 = self.default_pole_chart
        return self.eval(np.float64(u0), np.float64(v0))


@dataclass
class FrameBatch:
    """Per-point geometric state over a batch of chart points.

    Position, partials and metric are always present.  The second-order
    fields (second form, mean curvature, |B|^2, K) are None on a batch
    from `radial_frames`; the radial fields are populated only when a
    pole was supplied.
    """

    F: np.ndarray
    Fu: np.ndarray
    Fv: np.ndarray
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    detg: np.ndarray
    B11: np.ndarray | None = None
    B12: np.ndarray | None = None
    B22: np.ndarray | None = None
    H: np.ndarray | None = None
    normH: np.ndarray | None = None
    normBsq: np.ndarray | None = None
    K: np.ndarray | None = None
    r: np.ndarray | None = None
    radial: np.ndarray | None = None          # ambient unit radial direction
    gradPr: np.ndarray | None = None          # contravariant chart components
    normGradPr: np.ndarray | None = None
    normGradPerp: np.ndarray | None = None

    def __getitem__(self, idx) -> "FrameBatch":
        def take(a):
            return None if a is None else a[idx]
        return FrameBatch(**{k: take(v) for k, v in self.__dict__.items()})

    @staticmethod
    def concat(batches: list["FrameBatch"]) -> "FrameBatch":
        """Join 1-D batches point-wise; a field absent in one is absent."""
        def join(name):
            parts = [getattr(b, name) for b in batches]
            if any(a is None for a in parts):
                return None
            return np.concatenate(parts)
        return FrameBatch(**{k: join(k) for k in batches[0].__dict__})

    @property
    def normB(self) -> np.ndarray:
        return np.sqrt(self.normBsq)

    def ambient_gradPr(self) -> np.ndarray:
        """The tangential radial gradient as an ambient vector."""
        a = self.gradPr
        return a[..., 0, None] * self.Fu + a[..., 1, None] * self.Fv

    def ambient_gradPerp(self) -> np.ndarray:
        """Normal component of the ambient radial direction."""
        return self.radial - self.ambient_gradPr()

    def bilinear_B(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """B(x, y) for chart-component vectors x, y: an ambient vector."""
        x1, x2 = x[..., 0, None], x[..., 1, None]
        y1, y2 = y[..., 0, None], y[..., 1, None]
        return (self.B11 * x1 * y1 + self.B12 * (x1 * y2 + x2 * y1)
                + self.B22 * x2 * y2)

    def metric_dot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Induced-metric inner product of chart-component vectors."""
        return (self.g11 * x[..., 0] * y[..., 0]
                + self.g12 * (x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0])
                + self.g22 * x[..., 1] * y[..., 1])

    def rotate90(self, x: np.ndarray) -> np.ndarray:
        """Rotate a chart-component vector by +90 degrees in the metric.

        The result is g-orthogonal to x with the same g-norm, and the pair
        (x, rotated) is positively oriented in the chart.
        """
        w = np.sqrt(self.detg)
        e1 = -(self.g12 * x[..., 0] + self.g22 * x[..., 1]) / w
        e2 = (self.g11 * x[..., 0] + self.g12 * x[..., 1]) / w
        return np.stack([e1, e2], axis=-1)


_DET_FLOOR = 1e-14


def _first_order(surface: ParametricSurface, F, Fu, Fv, pole,
                 det_floor: float) -> FrameBatch:
    """Metric and radial split from the first partials of the chart."""
    form = surface.form
    g11 = form.inner(Fu, Fu)
    g12 = form.inner(Fu, Fv)
    g22 = form.inner(Fv, Fv)
    detg = g11 * g22 - g12 * g12
    if np.any(detg <= det_floor):
        raise ImmersionError(
            f"degenerate metric on chart {surface.label!r}: "
            f"min det g = {float(np.min(detg)):.3e}"
        )
    batch = FrameBatch(F=F, Fu=Fu, Fv=Fv, g11=g11, g12=g12, g22=g22,
                       detg=detg)

    if pole is not None:
        pole = np.asarray(pole, dtype=np.float64)
        batch.r = form.distance(pole, F, check=False)
        batch.radial = form.radial_unit(pole, F)
        w1 = form.inner(batch.radial, Fu)
        w2 = form.inner(batch.radial, Fv)
        a1 = (g22 * w1 - g12 * w2) / detg
        a2 = (g11 * w2 - g12 * w1) / detg
        batch.gradPr = np.stack([a1, a2], axis=-1)
        normsq = a1 * w1 + a2 * w2
        batch.normGradPr = np.sqrt(np.maximum(normsq, 0.0))
        batch.normGradPerp = np.sqrt(np.maximum(1.0 - normsq, 0.0))
    return batch


def radial_frames(surface: ParametricSurface, U, V,
                  pole: np.ndarray | None = None) -> FrameBatch:
    """First-order frame: position, partials, metric and radial split.

    For callers that need only r and its tangential gradient (level-set
    projection, curve marching, field sampling).  The fields it fills
    are computed by the same code as in `frames`, so they agree bitwise.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    F, Fu, Fv, *_ = surface.jet(U, V)
    return _first_order(surface, F, Fu, Fv, pole, _DET_FLOOR)


def frames(surface: ParametricSurface, U, V,
           pole: np.ndarray | None = None,
           det_floor: float = _DET_FLOOR) -> FrameBatch:
    """Evaluate the full geometric frame at a batch of chart points."""
    form = surface.form
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    F, Fu, Fv, Fuu, Fuv, Fvv = surface.jet(U, V)
    batch = _first_order(surface, F, Fu, Fv, pole, det_floor)
    g11, g12, g22, detg = batch.g11, batch.g12, batch.g22, batch.detg

    # Model-covariant second derivatives (identity map for b = 0).
    if form.curved:
        D11 = Fuu + form.b * g11[..., None] * F
        D12 = Fuv + form.b * g12[..., None] * F
        D22 = Fvv + form.b * g22[..., None] * F
    else:
        D11, D12, D22 = Fuu, Fuv, Fvv

    def normal_part(D):
        w1 = form.inner(D, Fu)
        w2 = form.inner(D, Fv)
        a1 = (g22 * w1 - g12 * w2) / detg
        a2 = (g11 * w2 - g12 * w1) / detg
        return D - a1[..., None] * Fu - a2[..., None] * Fv

    B11 = normal_part(D11)
    B12 = normal_part(D12)
    B22 = normal_part(D22)

    inv11 = g22 / detg
    inv12 = -g12 / detg
    inv22 = g11 / detg
    H = 0.5 * (inv11[..., None] * B11 + 2.0 * inv12[..., None] * B12
               + inv22[..., None] * B22)

    ip = form.inner
    # Full contraction g^{ik} g^{jl} <B_ij, B_kl> written out by symmetry.
    bb1111 = ip(B11, B11)
    bb1112 = ip(B11, B12)
    bb1122 = ip(B11, B22)
    bb1212 = ip(B12, B12)
    bb1222 = ip(B12, B22)
    bb2222 = ip(B22, B22)
    normBsq = (
        inv11 * inv11 * bb1111
        + 4.0 * inv11 * inv12 * bb1112
        + 2.0 * inv11 * inv22 * bb1212
        + 2.0 * inv12 * inv12 * (bb1212 + bb1122)
        + 4.0 * inv12 * inv22 * bb1222
        + inv22 * inv22 * bb2222
    )
    batch.B11, batch.B12, batch.B22 = B11, B12, B22
    batch.H = H
    batch.normH = form.norm(H)
    batch.normBsq = np.maximum(normBsq, 0.0)
    batch.K = form.b + (bb1122 - bb1212) / detg
    return batch


def frame_at(surface: ParametricSurface, u: float, v: float,
             pole: np.ndarray | None = None) -> FrameBatch:
    """Single-point convenience wrapper around `frames`."""
    return frames(surface, np.float64(u), np.float64(v), pole=pole)


def gauss_equation_residual(surface: ParametricSurface, u, v) -> np.ndarray:
    """|K - (b - |B|^2 / 2)|, which vanishes identically on minimal surfaces."""
    fb = frames(surface, u, v)
    return np.abs(fb.K - (surface.form.b - 0.5 * fb.normBsq))


def _metric_entries(surface: ParametricSurface, U, V):
    F, Fu, Fv, *_ = surface.jet(np.asarray(U, dtype=np.float64),
                                np.asarray(V, dtype=np.float64))
    ip = surface.form.inner
    return np.stack([ip(Fu, Fu), ip(Fu, Fv), ip(Fv, Fv)], axis=-1)


def _fd_step(surface: ParametricSurface, U, V, h: float) -> float:
    """Shrink the metric-differencing step near non-periodic chart edges."""
    (u0, u1), (v0, v1) = surface.domain
    margin = np.inf
    if not surface.periodic_u:
        margin = min(margin, float(np.min(U - u0)), float(np.min(u1 - U)))
    if not surface.periodic_v:
        margin = min(margin, float(np.min(V - v0)), float(np.min(v1 - V)))
    if margin >= 2.0 * h:
        return h
    if margin < 4e-8:
        raise ImmersionError(
            f"chart point too close to the domain edge (margin {margin:.2e})"
        )
    return margin / 2.0


def christoffel(surface: ParametricSurface, U, V,
                h_fd: float = 1e-5) -> np.ndarray:
    """Christoffel symbols of the induced metric, shape (..., 2, 2, 2).

    Indexed as gamma[..., k, i, j] with symmetry in (i, j).  The metric
    derivatives come from Richardson-extrapolated central differences of
    the analytic metric, which keeps one code path for both ambient models.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    h = _fd_step(surface, U, V, h_fd)

    def d_metric(axis: int) -> np.ndarray:
        def diff(step):
            if axis == 0:
                hi = _metric_entries(surface, U + step, V)
                lo = _metric_entries(surface, U - step, V)
            else:
                hi = _metric_entries(surface, U, V + step)
                lo = _metric_entries(surface, U, V - step)
            return (hi - lo) / (2.0 * step)
        return (4.0 * diff(h / 2.0) - diff(h)) / 3.0

    dg_u = d_metric(0)   # (..., 3) entries (g11, g12, g22) differentiated
    dg_v = d_metric(1)
    g = _metric_entries(surface, U, V)
    g11, g12, g22 = g[..., 0], g[..., 1], g[..., 2]
    detg = g11 * g22 - g12 * g12

    # dg[l, i, j] = partial_l g_ij assembled from the entry stacks.
    dg = np.empty(g.shape[:-1] + (2, 2, 2))
    for axis, stack in ((0, dg_u), (1, dg_v)):
        dg[..., axis, 0, 0] = stack[..., 0]
        dg[..., axis, 0, 1] = stack[..., 1]
        dg[..., axis, 1, 0] = stack[..., 1]
        dg[..., axis, 1, 1] = stack[..., 2]

    inv = np.empty(g.shape[:-1] + (2, 2))
    inv[..., 0, 0] = g22 / detg
    inv[..., 0, 1] = -g12 / detg
    inv[..., 1, 0] = -g12 / detg
    inv[..., 1, 1] = g11 / detg

    # gamma^k_ij = 1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij), with
    # dg[..., i, j, l] = d_i g_jl already in the needed axis order.
    bracket = dg + np.swapaxes(dg, -3, -2) - np.moveaxis(dg, -3, -1)
    gamma = 0.5 * np.einsum("...kl,...ijl->...kij", inv, bracket)
    return gamma


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
        return form.distance(pole, F, check=False)

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

        (2 - |grad^P r|^2) h_b(r) + 2 <radial, H>.
    """
    fb = frames(surface, U, V, pole=pole)
    hb = surface.form.h(fb.r)
    return ((2.0 - fb.normGradPr ** 2) * hb
            + 2.0 * surface.form.inner(fb.radial, fb.H))


def check_surface(surface: ParametricSurface, n: int = 200,
                  seed: int = 0, max_r: float | None = None) -> dict:
    """Sample invariants of a chart: model membership, tangency, minimality.

    Returns the sampled maxima so callers can assert against their own
    tolerances; raises nothing by itself.  With `max_r` the samples are
    restricted to extrinsic distance at most max_r from the default pole,
    which is the region the ball pipeline evaluates; hyperboloid charts
    lose second-derivative accuracy far outside it, where components reach
    e^r and the tangential projection cancels catastrophically.
    """
    rng = np.random.default_rng(seed)
    (u0, u1), (v0, v1) = surface.domain
    pad_u = 0.0 if surface.periodic_u else 0.05 * (u1 - u0)
    pad_v = 0.0 if surface.periodic_v else 0.05 * (v1 - v0)

    def draw(k):
        return (rng.uniform(u0 + pad_u, u1 - pad_u, k),
                rng.uniform(v0 + pad_v, v1 - pad_v, k))

    U, V = draw(n)
    if max_r is not None:
        pole = surface.default_pole()
        keep_u, keep_v = [], []
        total = 0
        for _ in range(200):
            r = surface.form.distance(pole, surface.eval(U, V), check=False)
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
    F, Fu, Fv, *_ = surface.jet(U, V)
    fb = frames(surface, U, V)
    out = {
        "max_normH": float(np.max(fb.normH)),
        "min_detg": float(np.min(fb.detg)),
        "max_tangency": 0.0,
        "max_model_residual": 0.0,
        "max_B_tangency": 0.0,
    }
    # Tangency defect of the normalized second form: components of
    # B(e_i, e_j) along a g-orthonormal tangent frame.  This is the scale
    # at which the defect feeds contracted quantities (H, |B|^2, boundary
    # curvature integrands); raw ambient products would grow as e^{3r} on
    # hyperboloid charts and measure nothing useful.
    e1 = fb.Fu / np.sqrt(fb.g11)[..., None]
    t2 = fb.Fv - (fb.g12 / fb.g11)[..., None] * fb.Fu
    e2 = t2 / np.sqrt(np.maximum(form.inner(t2, t2), 1e-300))[..., None]
    s11 = fb.g11
    s12 = np.sqrt(fb.g11 * fb.g22)
    s22 = fb.g22
    out["max_B_tangency"] = float(np.max(np.stack([
        np.abs(form.inner(Bij, e)) / s
        for Bij, s in ((fb.B11, s11), (fb.B12, s12), (fb.B22, s22))
        for e in (e1, e2)
    ])))
    if form.curved:
        out["max_model_residual"] = float(np.max(form.point_residual(F)))
        tang = np.stack([form.inner(F, Fu), form.inner(F, Fv)])
        scale = 1.0 + np.abs(form.b) * np.einsum("...k,...k->...", F, F)
        out["max_tangency"] = float(np.max(np.abs(tang) / scale))
    return out


def jet_from_positions(eval_fn, domain, scale: float | None = None):
    """Build a jet callable from a position-only chart by finite differences.

    Fallback for user-supplied charts without analytic partials; catalog
    surfaces never use it.  Richardson-extrapolated central differences
    with step 1e-6 * domain scale.
    """
    (u0, u1), (v0, v1) = domain
    if scale is None:
        scale = max(u1 - u0, v1 - v0)
    h = 1e-6 * scale

    def second(fun, x, step):
        def d(hh):
            return (fun(x + hh) - 2.0 * fun(x) + fun(x - hh)) / (hh * hh)
        return (4.0 * d(step / 2.0) - d(step)) / 3.0

    def jet(U, V):
        U = np.asarray(U, dtype=np.float64)
        V = np.asarray(V, dtype=np.float64)
        F = eval_fn(U, V)

        def du(f=eval_fn):
            a = (f(U + h / 2.0, V) - f(U - h / 2.0, V)) / h
            b = (f(U + h, V) - f(U - h, V)) / (2.0 * h)
            return (4.0 * a - b) / 3.0

        def dv(f=eval_fn):
            a = (f(U, V + h / 2.0) - f(U, V - h / 2.0)) / h
            b = (f(U, V + h) - f(U, V - h)) / (2.0 * h)
            return (4.0 * a - b) / 3.0

        Fu = du()
        Fv = dv()
        Fuu = second(lambda x: eval_fn(x, V), U, h)
        Fvv = second(lambda x: eval_fn(U, x), V, h)

        def cross(hh):
            return (eval_fn(U + hh, V + hh) - eval_fn(U + hh, V - hh)
                    - eval_fn(U - hh, V + hh)
                    + eval_fn(U - hh, V - hh)) / (4.0 * hh * hh)

        Fuv = (4.0 * cross(h / 2.0) - cross(h)) / 3.0
        return F, Fu, Fv, Fuu, Fuv, Fvv

    return jet
