"""Rotational minimal surfaces in hyperbolic 3-space from a closed-form profile.

Coordinates adapted to a geodesic axis of H^3 give the metric
cosh^2(rho) dt^2 + d rho^2 + sinh^2(rho) d theta^2, where t runs along the
axis, rho is distance from it, and theta rotates around it.  A surface of
revolution traced by a profile curve (t(sigma), rho(sigma)) is minimal
exactly when the area integrand conserves

    E = sinh(rho) cosh^2(rho) * dt/dsigma = c        (profile first integral)

along the arclength parameter sigma (cosh^2 rho (dt/dsigma)^2 +
(drho/dsigma)^2 = 1).  With x = cosh 2 rho the two give
d sigma = dx / (2 sqrt(x^2 - 1 - 4 c^2)), so with the neck at sigma = 0

    cosh 2 rho(sigma) = k cosh 2 sigma,    k = sqrt(1 + 4 c^2)

(Mori, Indiana Univ. Math. J. 30, 1981; do Carmo-Dajczer, Trans. AMS
277, 1983), and the neck radius rho_0 solves sinh(rho_0) cosh(rho_0) = c,
so rho_0 = asinh(2c)/2.  `RotationProfile.jets` reads everything from
d = cosh 2 rho - 1 = 4 c^2 / (k + 1) + 2 k sinh^2 sigma, formed without
cancellation: rho = log1p(d + sinh 2 rho) / 2 with sinh 2 rho =
sqrt(d (2 + d)), rho' = k sinh 2 sigma / sinh 2 rho, and t' from the
first integral, c / (sinh rho cosh^2 rho) with sinh^2 rho = d / 2.  These
are analytic through the neck and take complex sigma as they stand,
which the complex-step k_g route reads.

t has no elementary form: t' decays as e^{-3 sigma}, and t is an
elliptic integral of the third kind.  `solve_profile` tabulates it once,
on uniform panels in |sigma|: each panel holds the degree-`_DEGREE`
polynomial that interpolates t at the panel's Chebyshev points, whose
values are `_GAUSS`-point Gauss-Legendre sums of t'.  The poles of t'
nearest the real axis sit at sigma = +-i atan(2c)/2, so a panel is
min(`_PANEL`, atan(2c)/4) wide (`RotationProfile.panel`): half the
distance to those poles for small c, and `_PANEL` for every c >= 0.3.
A point's panel is floor(|sigma| / panel).  Against mpmath, rho is
within 3.3e-16 relative and t within 7e-16 absolute for c from 0.01 to
2 over sigma in [0, 12], so the chart's position and its derivatives
agree to rounding: there is no interpolation error along the surface.
The oracle, not the derivation, is the correctness contract:
construction fails loudly if sampled |H| exceeds 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import immersion
from ..errors import ConfigError, ConstructionError
from ..immersion import ParametricSurface
from ..space_forms import SpaceForm
from .charts import _stack

_PANEL = 0.125    # widest panel of the t table, in |sigma|
_DEGREE = 16      # degree of each panel's polynomial in t
_GAUSS = 16       # Gauss-Legendre points per tabulated integral of t'


def neck_radius(c: float) -> float:
    """Distance from the axis to the narrowest circle of the surface."""
    if c <= 0:
        raise ConfigError(
            f"profile constant c={c} admits no neck (need c > 0)"
        )
    return float(np.arcsinh(2.0 * c) / 2.0)


def _cosh_2rho_minus_1(c: float, k: float, sinh_sq):
    """d = k cosh 2 sigma - 1 from sinh^2 sigma, with k - 1 = 4c^2/(k + 1)."""
    return 4.0 * c * c / (k + 1.0) + 2.0 * k * sinh_sq


def _t_prime(c: float, d):
    """t' = c / (sinh rho cosh^2 rho), with sinh^2 rho = d / 2."""
    return 2.0 * np.sqrt(2.0) * c / (np.sqrt(d) * (2.0 + d))


@dataclass(frozen=True)
class RotationProfile:
    """Profile for one first-integral constant c, with k = sqrt(1 + 4c^2).

    ``coefs`` (shape (_DEGREE + 1, panels)) holds, per panel of width
    ``panel`` in |sigma|, the ascending monomial coefficients of t in
    x = |sigma| / panel - j on panel j, which runs over [0, 1).  The
    constant term is t at the panel start itself, so t(0) = 0 exactly
    and the mirror sigma -> -sigma fixes the neck circle exactly.
    """

    c: float
    k: float
    panel: float
    coefs: np.ndarray

    def jets(self, sigma: np.ndarray, order: int):
        """rho and t at sigma with their first `order` sigma-derivatives.

        Returns ((rho, rho', ...), (t, t', ...)), each of length
        order + 1; no derivative above `order` is computed.  sigma may be
        complex.  rho is even in sigma and t odd: everything is evaluated
        at a = +-sigma with Re a >= 0 (the sign +1 at Re sigma = 0), and
        the odd terms take the sign back, so the mirror sigma -> -sigma
        holds bitwise.
        """
        sigma = np.asarray(sigma)
        sgn = np.where(sigma.real < 0, -1.0, 1.0)
        a = sgn * sigma
        c, k = self.c, self.k
        sh = np.sinh(a)
        sh_sq = sh * sh
        d = _cosh_2rho_minus_1(c, k, sh_sq)
        s2 = np.sqrt(d * (2.0 + d))                     # sinh 2 rho
        rho = 0.5 * np.log1p(d + s2)

        q = a / self.panel
        panel = np.minimum(np.floor(q.real).astype(np.intp),
                           self.coefs.shape[1] - 1)
        x = q - panel
        cf = np.take(self.coefs, panel, axis=1)
        t = cf[-1] * x                                  # Horner, in place
        for ck in cf[-2:0:-1]:
            t += ck
            t *= x
        t += cf[0]
        t *= sgn
        if order == 0:
            return (rho,), (t,)

        # sinh 2 sigma = 2 sinh sigma sqrt(1 + sinh^2 sigma)
        rho_d = sgn * (2.0 * k * sh * np.sqrt(1.0 + sh_sq) / s2)
        t_d = _t_prime(c, d)
        if order == 1:
            return (rho, rho_d), (t, t_d)
        # rho'' = c^2 cosh 2 rho / m^3 with m = sinh rho cosh rho, and
        # t''/t' = -rho' (cosh 2 rho / m + tanh rho).
        rho_dd = 8.0 * c * c * (1.0 + d) / s2**3
        t_dd = -t_d * rho_d * (2.0 + 3.0 * d) / s2
        return (rho, rho_d, rho_dd), (t, t_d, t_dd)


def solve_profile(c: float, sigma_max: float) -> RotationProfile:
    """The profile of constant c, with its t table covering [0, sigma_max].

    The panels are h = min(_PANEL, atan(2c) / 4) wide, so each stays
    twice its width away from the poles of t' at sigma = +-i atan(2c)/2.
    Each panel [j h, (j + 1) h] samples t at its Chebyshev points
    j h + x_i h, x_i = (1 - cos(i pi / _DEGREE)) / 2: t at the panel
    start (the running sum of whole-panel integrals) plus a Gauss-Legendre
    sum of t' from there, every panel at once.
    """
    neck_radius(c)                 # validates c
    k = float(np.sqrt(1.0 + 4.0 * c * c))
    h = min(_PANEL, float(np.arctan(2.0 * c)) / 4.0)
    panels = int(sigma_max / h) + 1
    x = 0.5 - 0.5 * np.cos(np.pi * np.arange(_DEGREE + 1) / _DEGREE)
    g, w = np.polynomial.legendre.leggauss(_GAUSS)
    half = 0.5 * h * x                              # half of [start, node]
    nodes = (h * np.arange(panels)[:, None, None]
             + half[:, None] * (1.0 + g))           # (panels, x, g)
    t_d = _t_prime(c, _cosh_2rho_minus_1(c, k, np.sinh(nodes) ** 2))
    partial = half * (t_d @ w)                      # t(node) - t(start)
    t_start = np.concatenate([[0.0], np.cumsum(partial[:-1, -1])])
    coefs = np.linalg.solve(np.vander(x, increasing=True),
                            (t_start[:, None] + partial).T)
    coefs[0] = t_start
    return RotationProfile(c=c, k=k, panel=h, coefs=coefs)


def solve_hyperbolic_catenoid(c: float = 1.0,
                              s_max: float = 12.0) -> ParametricSurface:
    """Spherical-catenoid-type minimal surface in H^3, theta-periodic.

    Chart coordinates: u = theta in [0, 2 pi), v = arclength sigma along
    the profile, with the neck at sigma = 0.
    """
    sigma_max = float(s_max)
    profile = solve_profile(c, sigma_max)

    def jet(U, V, order):
        # Factors of v and of u apart: a grid's profile runs once per v.
        rho_j, t_j = profile.jets(V, order)
        rho, t = rho_j[0], t_j[0]
        ct, st, ch, sh = np.cosh(t), np.sinh(t), np.cosh(rho), np.sinh(rho)
        cth, sth = np.cos(U), np.sin(U)
        F0, F1, F2, F3 = ct * ch, st * ch, sh * cth, sh * sth
        F = _stack(F0, F1, F2, F3)
        if order == 0:
            return (F,)

        # Partials of F in t and rho: E_t = (F1, F0, 0, 0), E_rho = R,
        # E_tt = (F0, F1, 0, 0) and E_trho = (R1, R0, 0, 0).
        rho_d, t_d = rho_j[1], t_j[1]
        zero = np.zeros(np.broadcast(U, V).shape)
        R0, R1, R2, R3 = ct * sh, st * sh, ch * cth, ch * sth
        Fu = _stack(zero, zero, -F3, F2)
        Fv = _stack(F1 * t_d + R0 * rho_d, F0 * t_d + R1 * rho_d,
                    R2 * rho_d, R3 * rho_d)
        if order == 1:
            return F, Fu, Fv

        # F_vv = E_t t'' + E_rho rho'' + E_tt t'^2 + 2 E_trho t'rho' + F rho'^2
        rho_dd, t_dd = rho_j[2], t_j[2]
        td2, tr, rd2 = t_d**2, t_d * rho_d, rho_d**2
        Fuu = _stack(zero, zero, -F2, -F3)
        Fuv = _stack(zero, zero, -R3 * rho_d, R2 * rho_d)
        Fvv = _stack(
            F1 * t_dd + R0 * rho_dd + F0 * td2 + 2.0 * R1 * tr + F0 * rd2,
            F0 * t_dd + R1 * rho_dd + F1 * td2 + 2.0 * R0 * tr + F1 * rd2,
            R2 * rho_dd + F2 * rd2, R3 * rho_dd + F3 * rd2)
        return F, Fu, Fv, Fuu, Fuv, Fvv

    surface = ParametricSurface(
        form=SpaceForm(-1.0), jet=jet, label="hyperbolic_catenoid",
        domain=((0.0, 2.0 * np.pi), (-sigma_max, sigma_max)),
        periodic_u=True, symmetry="u_shift", mirror_u=(1, 1, 1, -1),
        mirror_v=(1, -1, 1, 1))

    # Construction-time correctness oracle: sampled mean curvature.  The
    # sample spans the ball-serving part of the chart; the outermost
    # margin (reserved so that every requested ball clears the edge) is
    # left out.  The profile is exact to rounding, but the hyperboloid
    # coordinates grow as e^sigma: the float64 floor of |H| rises from
    # 2.5e-12 at sigma in (8, 9) to 2e-8 in (10, 11) and 2.6e-6 in
    # (11, 12), and past sigma ~ 12.3 `frames` raises ImmersionError.
    # The 500 points are a fixed lattice: 25 values of sigma, ends and
    # neck included, against 20 of theta at half steps.
    span = max(sigma_max - 2.0, 0.75 * sigma_max)
    sig = np.linspace(-span, span, 25)[None, :]
    theta = (2.0 * np.pi / 20) * (np.arange(20) + 0.5)[:, None]
    fb = immersion.frames(surface, *np.broadcast_arrays(theta, sig))
    worst = float(np.max(np.abs(fb.H)))
    if worst > 1e-6:
        raise ConstructionError(
            f"rotational surface failed the minimality oracle: "
            f"max |H| = {worst:.3e} for c={c}"
        )
    return surface
