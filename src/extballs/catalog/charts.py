"""Analytic charts for the built-in surfaces.

Every chart returns exact partials up to the order its caller asks for
(see `ParametricSurface`), building no term above it; nothing here is
differenced numerically.  The sphere cap chart uses Cartesian exponential
coordinates (u, v) about its pole, with w = u^2 + v^2, built from the
entire function

    sinc family:   A(w) = sin(sqrt(w))/sqrt(w)

and its first two w-derivatives, evaluated by series near w = 0 to avoid
cancellation.  This keeps the chart smooth through the center, so the pole
never sits on a coordinate singularity the way it would in polar
coordinates.  The hyperbolic plane chart uses Fermi coordinates along a
geodesic axis instead (see `h2_chart`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..immersion import ParametricSurface
from ..space_forms import SpaceForm

_SERIES_CUT = 1e-2


def _sinc_family(w: np.ndarray, order: int) -> list[np.ndarray]:
    """A = sin(sqrt(w))/sqrt(w) and its first `order` w-derivatives,
    at real or complex w (the series branch reads Re w)."""
    w = np.asarray(w)
    small = w.real <= _SERIES_CUT
    ws = np.where(small, w, 0.0)
    rho = np.sqrt(np.where(small, 1.0, w))
    sn = np.sin(rho)
    A_s = 1.0 - ws / 6.0 + ws**2 / 120.0 - ws**3 / 5040.0 + ws**4 / 362880.0
    out = [np.where(small, A_s, sn / rho)]
    if order >= 1:
        cs = np.cos(rho)
        A1_s = -1.0 / 6.0 + ws / 60.0 - ws**2 / 1680.0 + ws**3 / 90720.0
        out.append(np.where(small, A1_s, (rho * cs - sn) / (2.0 * rho**3)))
    if order >= 2:
        A2_s = 1.0 / 60.0 - ws / 840.0 + ws**2 / 30240.0
        A2_c = ((3.0 - rho * rho) * sn - 3.0 * rho * cs) / (4.0 * rho**5)
        out.append(np.where(small, A2_s, A2_c))
    return out


def _stack(*comps):
    """Components on a new leading axis, broadcast to one shape."""
    same = len({np.shape(c) for c in comps}) == 1
    return np.array(comps if same else np.broadcast_arrays(*comps))


def plane_chart(halfwidth: float = 10.0) -> ParametricSurface:
    """The flat plane z = 0 in R^3."""

    def jet(U, V, order):
        U, V = np.broadcast_arrays(U, V)
        zero = np.zeros_like(U)
        F = _stack(U, V, zero)
        if order == 0:
            return (F,)
        one = np.ones_like(U)
        Fu = _stack(one, zero, zero)
        Fv = _stack(zero, one, zero)
        if order == 1:
            return F, Fu, Fv
        Z = _stack(zero, zero, zero)
        return F, Fu, Fv, Z, Z.copy(), Z.copy()

    a = float(halfwidth)
    return ParametricSurface(
        form=SpaceForm(0.0), domain=((-a, a), (-a, a)), jet=jet,
        label="plane", symmetry="u_shift", mirror_u=(-1, 1, 1),
        mirror_v=(1, -1, 1),
    )


def catenoid_chart(v_max: float = 4.0) -> ParametricSurface:
    """The standard catenoid with unit neck, periodic in u."""

    def jet(U, V, order):
        cu, su, ch = np.cos(U), np.sin(U), np.cosh(V)
        F = _stack(ch * cu, ch * su, V)
        if order == 0:
            return (F,)
        sh = np.sinh(V)
        zero = np.zeros(np.broadcast(U, V).shape)
        one = zero + 1.0
        Fu = _stack(-ch * su, ch * cu, zero)
        Fv = _stack(sh * cu, sh * su, one)
        if order == 1:
            return F, Fu, Fv
        Fuu = _stack(-ch * cu, -ch * su, zero)
        Fuv = _stack(-sh * su, sh * cu, zero)
        Fvv = _stack(ch * cu, ch * su, zero)
        return F, Fu, Fv, Fuu, Fuv, Fvv

    m = float(v_max)
    return ParametricSurface(
        form=SpaceForm(0.0), domain=((0.0, 2.0 * np.pi), (-m, m)), jet=jet,
        label="catenoid", periodic_u=True, symmetry="u_shift",
        mirror_u=(1, -1, 1), mirror_v=(1, 1, -1),
    )


def enneper_chart(halfwidth: float = 3.1) -> ParametricSurface:
    """The Enneper surface in its standard polynomial parametrization."""

    def jet(U, V, order):
        F = _stack(U - U * U * U / 3.0 + U * V * V,
                   -(V - V * V * V / 3.0 + U * U * V),
                   U * U - V * V)
        if order == 0:
            return (F,)
        Fu = _stack(1.0 - U * U + V * V, -2.0 * U * V, 2.0 * U)
        Fv = _stack(2.0 * U * V, -1.0 + V * V - U * U, -2.0 * V)
        if order == 1:
            return F, Fu, Fv
        zero = np.zeros_like(U)
        two = np.full_like(U, 2.0)
        Fuu = _stack(-2.0 * U, -2.0 * V, two)
        Fuv = _stack(2.0 * V, -2.0 * U, zero)
        Fvv = _stack(2.0 * U, 2.0 * V, -two)
        return F, Fu, Fv, Fuu, Fuv, Fvv

    a = float(halfwidth)
    return ParametricSurface(
        form=SpaceForm(0.0), domain=((-a, a), (-a, a)), jet=jet,
        label="enneper", symmetry="dihedral", mirror_u=(-1, 1, 1),
        mirror_v=(1, -1, 1),
    )


def helicoid_chart(halfwidth: float = 9.2) -> ParametricSurface:
    """The helicoid with unit pitch; infinite total curvature control."""

    def jet(U, V, order):
        U, V = np.broadcast_arrays(U, V)
        cu, su = np.cos(U), np.sin(U)
        F = _stack(V * cu, V * su, U)
        if order == 0:
            return (F,)
        zero = np.zeros_like(U)
        one = np.ones_like(U)
        Fu = _stack(-V * su, V * cu, one)
        Fv = _stack(cu, su, zero)
        if order == 1:
            return F, Fu, Fv
        Fuu = _stack(-V * cu, -V * su, zero)
        Fuv = _stack(-su, cu, zero)
        Z = _stack(zero, zero, zero)
        return F, Fu, Fv, Fuu, Fuv, Z

    a = float(halfwidth)
    return ParametricSurface(
        form=SpaceForm(0.0), domain=((-a, a), (-a, a)), jet=jet,
        label="helicoid", symmetry="u_shift", mirror_u=(1, -1, -1),
        mirror_v=(-1, -1, 1),
    )


def h2_chart(halfwidth: float = 8.8) -> ParametricSurface:
    """Totally geodesic hyperbolic plane inside hyperbolic 3-space.

    Fermi coordinates along a geodesic axis: u runs along the axis, v is
    signed distance from it inside the slice.  The induced metric is
    diag(cosh^2 v, 1), nowhere singular, and the chart keeps hyperboloid
    components aligned in axis pairs, which preserves second-fundamental-
    form accuracy much farther out than an exponential chart does (the
    position vector is reused exactly as the v-second-partial).
    """

    def jet(U, V, order):
        ct, st = np.cosh(U), np.sinh(U)
        cr, sr = np.cosh(V), np.sinh(V)
        zero = np.zeros_like(U)
        F = _stack(ct * cr, st * cr, sr, zero)
        if order == 0:
            return (F,)
        Fu = _stack(st * cr, ct * cr, zero, zero)
        Fv = _stack(ct * sr, st * sr, cr, zero)
        if order == 1:
            return F, Fu, Fv
        Fuu = _stack(ct * cr, st * cr, zero, zero)
        Fuv = _stack(st * sr, ct * sr, zero, zero)
        Fvv = F
        return F, Fu, Fv, Fuu, Fuv, Fvv

    a = float(halfwidth)
    return ParametricSurface(
        form=SpaceForm(-1.0), domain=((-a, a), (-a, a)), jet=jet,
        label="h2_in_h3", symmetry="u_shift", mirror_u=(1, -1, 1, 1),
        mirror_v=(1, 1, -1, 1),
    )


def sphere_cap_chart(halfwidth: float = 2.2) -> ParametricSurface:
    """Unit sphere centered at (1,0,0): the non-minimal control surface.

    Exponential Cartesian coordinates about the origin, which lies on the
    sphere; the chart stays immersed for u^2 + v^2 < pi^2, so the corner
    radius halfwidth*sqrt(2) must stay below pi.
    """
    a = float(halfwidth)
    if a * np.sqrt(2.0) >= np.pi - 1e-3:
        raise ConfigError(
            f"sphere cap halfwidth {a} reaches the conjugate radius"
        )

    def jet(U, V, order):
        w = U * U + V * V
        A, *dA = _sinc_family(w, order)
        C = np.cos(np.sqrt(w))
        F = _stack(1.0 - C, U * A, V * A)
        if order == 0:
            return (F,)
        A1 = dA[0]
        Fu = _stack(U * A, A + 2.0 * U * U * A1, 2.0 * U * V * A1)
        Fv = _stack(V * A, 2.0 * U * V * A1, A + 2.0 * V * V * A1)
        if order == 1:
            return F, Fu, Fv
        A2 = dA[1]
        Fuu = _stack(A + 2.0 * U * U * A1,
                     6.0 * U * A1 + 4.0 * (U * U * U) * A2,
                     2.0 * V * A1 + 4.0 * U * U * V * A2)
        Fuv = _stack(2.0 * U * V * A1,
                     2.0 * V * A1 + 4.0 * U * U * V * A2,
                     2.0 * U * A1 + 4.0 * U * V * V * A2)
        Fvv = _stack(A + 2.0 * V * V * A1,
                     2.0 * U * A1 + 4.0 * U * V * V * A2,
                     6.0 * V * A1 + 4.0 * (V * V * V) * A2)
        return F, Fu, Fv, Fuu, Fuv, Fvv

    return ParametricSurface(
        form=SpaceForm(0.0), domain=((-a, a), (-a, a)), jet=jet,
        label="sphere_control", symmetry="dihedral", mirror_u=(1, -1, 1),
        mirror_v=(1, 1, -1),
    )
