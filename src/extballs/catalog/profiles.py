"""Rotational minimal surfaces in hyperbolic 3-space from a profile ODE.

Coordinates adapted to a geodesic axis of H^3 give the metric
cosh^2(rho) dt^2 + d rho^2 + sinh^2(rho) d theta^2, where t runs along the
axis, rho is distance from it, and theta rotates around it.  A surface of
revolution traced by a profile curve (t(sigma), rho(sigma)) is minimal
exactly when the area integrand conserves

    E = sinh(rho) cosh^2(rho) * dt/dsigma = c        (profile first integral)

along the arclength parameter sigma (cosh^2 rho (dt/dsigma)^2 +
(drho/dsigma)^2 = 1).  The neck radius rho_0 solves
sinh(rho_0) cosh(rho_0) = c, so rho_0 = asinh(2c)/2.

The integrator only supplies rho(sigma) and t(sigma); every derivative in
the chart jet is recomputed from the conserved quantity at evaluation time.
Those jet values satisfy the minimality equations identically as functions
of rho, so interpolation error moves points slightly along the true
surface instead of off it, and the mean-curvature oracle checks out at
machine precision.  The oracle, not the derivation, is the correctness
contract: construction fails loudly if sampled |H| exceeds 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .. import immersion
from ..errors import ConfigError, ConstructionError
from ..immersion import ParametricSurface
from ..space_forms import SpaceForm


def neck_radius(c: float) -> float:
    """Distance from the axis to the narrowest circle of the surface."""
    if c <= 0:
        raise ConfigError(
            f"profile constant c={c} admits no neck (need c > 0)"
        )
    return float(np.arcsinh(2.0 * c) / 2.0)


@dataclass(frozen=True)
class RotationProfile:
    """Dense profile solution for one first-integral constant.

    The RK45 dense output is held as stacked segment data: breakpoints
    ``knots`` (ascending, one more than the segments), and per segment
    its start ``t_old``, step ``h``, start state ``y_old`` and
    polynomial coefficients ``Q``.  Only the rho and t rows of the state
    are kept: ``y_old`` has shape (2, segments) and ``Q`` (2, degree,
    segments).  `profile_values` evaluates the same polynomials as
    SciPy's `OdeSolution`, one gather and one polynomial pass for every
    point instead of one interpolant call per segment.
    """

    c: float
    knots: np.ndarray
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    Q: np.ndarray

    @staticmethod
    def from_solution(c: float, sol) -> "RotationProfile":
        """Gather an ascending `OdeSolution`'s RK segments once."""
        segs = sol.interpolants
        rows = [0, 2]  # state (rho, rho', t): keep rho and t
        return RotationProfile(
            c=c, knots=np.asarray(sol.ts, dtype=np.float64),
            t_old=np.array([s.t_old for s in segs]),
            h=np.array([s.h for s in segs]),
            y_old=np.array([s.y_old[rows] for s in segs]).T.copy(),
            Q=np.array([s.Q[rows] for s in segs]).transpose(1, 2, 0).copy())

    def profile_values(self, abs_sigma: np.ndarray):
        """(rho, t) at nonnegative arclengths, shaped like the input.

        Segment choice follows `OdeSolution`: a knot belongs to the
        segment that ends there, and points past either end extrapolate
        the end segments.  Each value is y_old + h * sum_k Q_k x^k, with
        x the fraction of the segment run through and k = 1..4; SciPy
        sums the terms in a BLAS product, so the two can differ in the
        last bit.
        """
        s = np.asarray(abs_sigma, dtype=np.float64)
        flat = s.ravel()
        seg = np.searchsorted(self.knots, flat, side="left") - 1
        np.clip(seg, 0, len(self.h) - 1, out=seg)
        h = self.h[seg]
        x = (flat - self.t_old[seg]) / h
        powers = [x]
        for _ in range(1, self.Q.shape[1]):
            powers.append(powers[-1] * x)
        out = []
        for Qrow, yrow in zip(self.Q, self.y_old):
            acc = Qrow[0][seg] * powers[0]
            for Qk, xk in zip(Qrow[1:], powers[1:]):
                acc += Qk[seg] * xk
            out.append((h * acc + yrow[seg]).reshape(s.shape))
        return tuple(out)

    def jets(self, sigma: np.ndarray, order: int):
        """rho and t at sigma with their first `order` sigma-derivatives.

        Returns ((rho, rho', ...), (t, t', ...)), each of length
        order + 1; no derivative above `order` is computed.  The profile
        is even in sigma for rho and odd for t; only |sigma| is
        interpolated and every derivative is recomputed from the first
        integral so the jet stays exactly on the minimal trajectory.
        """
        sigma = np.asarray(sigma, dtype=np.float64)
        sgn = np.sign(sigma)
        rho, t_abs = self.profile_values(np.abs(sigma))
        t = sgn * t_abs
        if order == 0:
            return (rho,), (t,)

        c = self.c
        ch, sh = np.cosh(rho), np.sinh(rho)
        m = sh * ch
        ratio_sq = np.clip(1.0 - (c / m) ** 2, 0.0, None)
        rho_d = sgn * np.sqrt(ratio_sq)
        t_d = c / (m * ch)
        if order == 1:
            return (rho, rho_d), (t, t_d)
        m_prime = np.cosh(2.0 * rho)
        rho_dd = c * c * m_prime / m**3
        t_dd = -c * rho_d * (m_prime * ch + m * sh) / (m * ch) ** 2
        return (rho, rho_d, rho_dd), (t, t_d, t_dd)


def _check_against_solution(profile: RotationProfile, sol) -> None:
    """Fail loudly if the gathered segments stop matching `OdeSolution`.

    Evaluated at every knot and segment midpoint, the two must agree to
    a few ulps; a change in SciPy's dense-output internals breaks that.
    """
    knots = profile.knots
    probe = np.concatenate([knots, 0.5 * (knots[:-1] + knots[1:])])
    ref = sol(probe)[[0, 2]]
    got = np.stack(profile.profile_values(probe))
    err = float(np.max(np.abs(got - ref)
                       / np.maximum(np.abs(ref), 1e-300)))
    if err > 1e-14:
        raise ConstructionError(
            f"gathered profile segments disagree with SciPy's dense "
            f"output by {err:.2e} (relative) for c={profile.c}"
        )


def integrate_profile(c: float, sigma_max: float):
    """RK45 dense solution of the profile, from the neck past sigma_max.

    The state is (rho, rho', t) in arclength; the returned SciPy
    `OdeSolution` is the reference that `RotationProfile` reproduces.
    """
    rho0 = neck_radius(c)

    def rhs(_s, y):
        rho = y[0]
        m = np.sinh(rho) * np.cosh(rho)
        return [y[1],
                c * c * np.cosh(2.0 * rho) / m**3,
                c / (m * np.cosh(rho))]

    span = sigma_max * 1.02 + 0.1
    sol = solve_ivp(rhs, (0.0, span), [rho0, 0.0, 0.0], method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    if not sol.success:
        raise ConstructionError(
            f"profile integration failed for c={c}: {sol.message}"
        )
    return sol.sol


def solve_profile(c: float, sigma_max: float) -> RotationProfile:
    """Integrate the profile from the neck out to arclength sigma_max."""
    sol = integrate_profile(c, sigma_max)
    profile = RotationProfile.from_solution(c, sol)
    _check_against_solution(profile, sol)
    return profile


def solve_hyperbolic_catenoid(c: float = 1.0,
                              s_max: float = 12.0) -> ParametricSurface:
    """Spherical-catenoid-type minimal surface in H^3, theta-periodic.

    Chart coordinates: u = theta in [0, 2 pi), v = arclength sigma along
    the profile, with the neck at sigma = 0.
    """
    sigma_max = float(s_max)
    profile = solve_profile(c, sigma_max)

    def jet(U, V, order):
        U, V = np.broadcast_arrays(U, V)
        rho_j, t_j = profile.jets(V, order)
        rho, t = rho_j[0], t_j[0]
        ct, st = np.cosh(t), np.sinh(t)
        ch, sh = np.cosh(rho), np.sinh(rho)
        cth, sth = np.cos(U), np.sin(U)

        def stack(*comps):
            return np.stack(np.broadcast_arrays(*comps), axis=-1)

        F = stack(ct * ch, st * ch, sh * cth, sh * sth)
        if order == 0:
            return (F,)

        rho_d, t_d = rho_j[1], t_j[1]
        zero = np.zeros_like(U)
        E_t = stack(st * ch, ct * ch, zero, zero)
        E_rho = stack(ct * sh, st * sh, ch * cth, ch * sth)
        E_theta = stack(zero, zero, -sh * sth, sh * cth)
        d = lambda a: a[..., None]
        Fu = E_theta
        Fv = E_t * d(t_d) + E_rho * d(rho_d)
        if order == 1:
            return F, Fu, Fv

        rho_dd, t_dd = rho_j[2], t_j[2]
        E_tt = stack(ct * ch, st * ch, zero, zero)
        E_trho = stack(st * sh, ct * sh, zero, zero)
        E_rhotheta = stack(zero, zero, -ch * sth, ch * cth)
        E_thetatheta = stack(zero, zero, -sh * cth, -sh * sth)
        Fuu = E_thetatheta
        Fuv = E_rhotheta * d(rho_d)
        Fvv = (E_t * d(t_dd) + E_rho * d(rho_dd) + E_tt * d(t_d**2)
               + 2.0 * E_trho * d(t_d * rho_d) + F * d(rho_d**2))
        return F, Fu, Fv, Fuu, Fuv, Fvv

    surface = ParametricSurface(
        form=SpaceForm(-1.0),
        domain=((0.0, 2.0 * np.pi), (-sigma_max, sigma_max)),
        jet=jet, label="hyperbolic_catenoid",
        periodic_u=True, symmetry="u_shift",
    )

    # Construction-time correctness oracle: sampled mean curvature.  The
    # sample spans the ball-serving part of the chart; the outermost
    # margin (reserved so that every requested ball clears the edge) is
    # left out: there the float64 floor of |H| rises from 2e-12 at r in
    # (8, 9) to 3e-8 at r in (10, 11), and past sigma ~ 12.3 `frames`
    # raises ImmersionError.
    rng = np.random.default_rng(7)
    span = max(sigma_max - 2.0, 0.75 * sigma_max)
    sig = rng.uniform(-span, span, 500)
    theta = rng.uniform(0.0, 2.0 * np.pi, 500)
    fb = immersion.frames(surface, theta, sig)
    worst = float(np.max(np.abs(fb.H)))
    if worst > 1e-6:
        raise ConstructionError(
            f"rotational surface failed the minimality oracle: "
            f"max |H| = {worst:.3e} for c={c}"
        )
    return surface
