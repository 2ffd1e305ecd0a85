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

An in-package Dormand-Prince 5(4) stepper (`rk45_segments`, the RK45
method with its quartic dense output) integrates the state
(rho, rho', t) from the neck.  Its steps and segment polynomials are
those of SciPy's ``solve_ivp(..., "RK45")`` bit for bit, which the
tests check, but SciPy is not needed at run time.  The integrator only
supplies rho(sigma) and t(sigma); every derivative in the chart jet is
recomputed from the conserved quantity at evaluation time.
Those jet values satisfy the minimality equations identically as functions
of rho, so interpolation error moves points slightly along the true
surface instead of off it, and the mean-curvature oracle checks out at
machine precision.  The oracle, not the derivation, is the correctness
contract: construction fails loudly if sampled |H| exceeds 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import immersion
from ..errors import ConfigError, ConstructionError
from ..immersion import ParametricSurface
from ..space_forms import SpaceForm
from .charts import _stack


def neck_radius(c: float) -> float:
    """Distance from the axis to the narrowest circle of the surface."""
    if c <= 0:
        raise ConfigError(
            f"profile constant c={c} admits no neck (need c > 0)"
        )
    return float(np.arcsinh(2.0 * c) / 2.0)


# Dormand-Prince 5(4) with Shampine's quartic dense output (Hairer,
# Norsett & Wanner, Solving ODEs I, Sec. II.4-II.6), in the layout of
# SciPy's RK45: stage nodes C, stage weights A, 5th-order weights B, error
# weights E (5th minus 4th order, over the seven FSAL stages) and the
# dense-output matrix P.
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY = 0.9        # shrink the asymptotic step factor by this
_MIN_FACTOR = 0.2    # smallest step factor
_MAX_FACTOR = 10     # largest step factor
_EXPONENT = -1 / 5   # -1 / (error estimator order + 1)


def _rms(x: np.ndarray):
    return np.linalg.norm(x) / x.size ** 0.5


def rk45_segments(fun, y0, t_bound: float, rtol: float, atol: float):
    """Dense RK45 solution of y' = fun(t, y) from t = 0 to t_bound.

    Returns the stacked segments (knots, t_old, h, y_old, Q): the
    ``len(h) + 1`` ascending breakpoints, each segment's start, step and
    start state (shape (n, segments)) and its dense-output coefficients
    (shape (n, 4, segments)).  Within a segment y(t_old + x h) is
    y_old + h sum_k Q_k x^k, k = 1..4.

    Every operation is SciPy's RK45 (``solve_ivp`` with
    ``dense_output=True`` and no ``max_step``): the initial step, the
    error norm and step control, the FSAL reuse of the last stage and
    ``Q = K.T @ P``, so knots and segments equal SciPy's bitwise.
    Raises `ConstructionError` when a step would fall below ten spacings
    of the floats at t.
    """
    y = np.asarray(y0, dtype=np.float64)
    t = 0.0
    f = np.asarray(fun(t, y), dtype=np.float64)

    # Initial step: Hairer, Norsett & Wanner's estimate, SciPy's
    # select_initial_step.
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1 = np.asarray(fun(t + h0, y + h0 * f), dtype=np.float64)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound)

    K = np.empty((len(_C) + 1, y.size))
    knots, t_olds, hs, y_olds, Qs = [t], [], [], [], []
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise ConstructionError(
                    f"RK45 step fell below {min_step:.1e} at t={t}")
            t_new = min(t + h_abs, t_bound)
            h_abs = h = t_new - t
            K[0] = f
            for s, (a, c) in enumerate(zip(_A[1:], _C[1:]), start=1):
                dy = np.dot(K[:s].T, a[:s]) * h
                K[s] = fun(t + c * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = np.asarray(fun(t + h, y_new), dtype=np.float64)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(K.T, _E) * h / scale)
            if error < 1:
                factor = (_MAX_FACTOR if error == 0 else
                          min(_MAX_FACTOR, _SAFETY * error ** _EXPONENT))
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error ** _EXPONENT)
            rejected = True
        t_olds.append(t)
        y_olds.append(y)
        hs.append(h)
        Qs.append(K.T.dot(_P))
        knots.append(t_new)
        t, y, f = t_new, y_new, f_new
    return (np.asarray(knots), np.array(t_olds), np.array(hs),
            np.array(y_olds).T.copy(), np.array(Qs).transpose(1, 2, 0).copy())


@dataclass(frozen=True)
class RotationProfile:
    """Dense profile solution for one first-integral constant.

    The RK45 dense output is held as stacked segment data (see
    `rk45_segments`): breakpoints ``knots`` (ascending, one more than the
    segments), and per segment its start ``t_old``, step ``h``, start
    state ``y_old`` and polynomial coefficients ``Q``.  Only the rho and
    t rows of the state are kept: ``y_old`` has shape (2, segments) and
    ``Q`` (2, degree, segments).  `profile_values` evaluates every point
    in one gather and one polynomial pass.
    """

    c: float
    knots: np.ndarray
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    Q: np.ndarray

    def profile_values(self, abs_sigma: np.ndarray):
        """(rho, t) at nonnegative arclengths, shaped like the input.

        A knot belongs to the segment that ends there, and points past
        either end extrapolate the end segments.  Each value is
        y_old + h * sum_k Q_k x^k, with x the fraction of the segment
        run through and k = 1..4, summed in ascending k.
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


def _check_continuity(profile: RotationProfile) -> None:
    """Fail loudly if a segment's polynomial misses the next segment's start.

    At x = 1 each segment must reproduce the next one's start state (the
    state the stepper accepted) to a few ulps, relative; a corrupted
    coefficient or a segment from another solution breaks that.
    """
    ref = profile.y_old[:, 1:]
    got = np.stack(profile.profile_values(profile.knots[1:-1]))
    err = float(np.max(np.abs(got - ref)
                       / np.maximum(np.abs(ref), 1e-300), initial=0.0))
    if err > 1e-14:
        raise ConstructionError(
            f"profile segments are discontinuous by {err:.2e} (relative) "
            f"at their knots for c={profile.c}"
        )


def solve_profile(c: float, sigma_max: float) -> RotationProfile:
    """Integrate the profile from the neck out past arclength sigma_max.

    The state is (rho, rho', t) in arclength; the profile keeps the rho
    and t rows.
    """
    rho0 = neck_radius(c)

    def rhs(_s, y):
        rho = y[0]
        m = np.sinh(rho) * np.cosh(rho)
        return [y[1],
                c * c * np.cosh(2.0 * rho) / m**3,
                c / (m * np.cosh(rho))]

    span = sigma_max * 1.02 + 0.1
    knots, t_old, h, y_old, Q = rk45_segments(
        rhs, [rho0, 0.0, 0.0], span, rtol=1e-10, atol=1e-12)
    rows = [0, 2]  # state (rho, rho', t): keep rho and t
    profile = RotationProfile(c=c, knots=knots, t_old=t_old, h=h,
                              y_old=y_old[rows], Q=Q[rows])
    _check_continuity(profile)
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
        F = _stack(ct * ch, st * ch, sh * cth, sh * sth)
        if order == 0:
            return (F,)

        rho_d, t_d = rho_j[1], t_j[1]
        zero = np.zeros_like(U)
        E_t = _stack(st * ch, ct * ch, zero, zero)
        E_rho = _stack(ct * sh, st * sh, ch * cth, ch * sth)
        E_theta = _stack(zero, zero, -sh * sth, sh * cth)
        Fu = E_theta
        Fv = E_t * t_d + E_rho * rho_d
        if order == 1:
            return F, Fu, Fv

        rho_dd, t_dd = rho_j[2], t_j[2]
        E_tt = _stack(ct * ch, st * ch, zero, zero)
        E_trho = _stack(st * sh, ct * sh, zero, zero)
        E_rhotheta = _stack(zero, zero, -ch * sth, ch * cth)
        E_thetatheta = _stack(zero, zero, -sh * cth, -sh * sth)
        Fuu = E_thetatheta
        Fuv = E_rhotheta * rho_d
        Fvv = (E_t * t_dd + E_rho * rho_dd + E_tt * t_d**2
               + 2.0 * E_trho * (t_d * rho_d) + F * rho_d**2)
        return F, Fu, Fv, Fuu, Fuv, Fvv

    surface = ParametricSurface(
        form=SpaceForm(-1.0),
        domain=((0.0, 2.0 * np.pi), (-sigma_max, sigma_max)),
        jet=jet, label="hyperbolic_catenoid",
        periodic_u=True, symmetry="u_shift", mirror_u=(1, 1, 1, -1),
        mirror_v=(1, -1, 1, 1),
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
