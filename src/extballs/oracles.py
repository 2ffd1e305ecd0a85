"""Verification oracles for the immersion calculus.

Independent routes to quantities the pipeline computes in closed form,
for the acceptance checks: the Gauss-equation residual on minimal charts,
a finite-difference Laplacian of the extrinsic distance, and the closed
form it must match.  No pipeline stage calls them.
"""

from __future__ import annotations

import numpy as np

from .errors import ImmersionError, PoleSingularity
from .immersion import ParametricSurface, frames


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
