"""Catalog registry, chart sizing, and the ODE-built hyperbolic catenoid."""

import numpy as np
import pytest

from extballs import catalog
from extballs.catalog import _min_boundary_r, solve_profile
from extballs.errors import ConfigError, GeometryError
from extballs.immersion import frames
from oracles import check_surface, make

ALL_NAMES = ["plane", "catenoid", "enneper", "helicoid", "h2_in_h3",
             "hyperbolic_catenoid", "sphere_control"]


def test_registry_contents():
    assert sorted(catalog.entries) == sorted(ALL_NAMES)
    listing = catalog.list_entries()
    assert [e["name"] for e in listing] == [e.name for e in catalog._ENTRIES]
    for item in listing:
        assert item["default_schedule"]["t_max"] > 0
        for ref in item["references"]:
            assert set(ref) == {"quantity", "value", "provenance"}


def test_unknown_name_and_param():
    with pytest.raises(ConfigError):
        make("moebius")
    with pytest.raises(ConfigError):
        make("plane", params={"twist": 3})
    with pytest.raises(ConfigError):
        make("catenoid", t_max=-2.0)


@pytest.mark.parametrize("name,factor", [
    ("plane", 1.25), ("catenoid", 1.3), ("enneper", 1.3),
    ("helicoid", 1.15), ("h2_in_h3", 1.1),
])
def test_chart_sizing_covers_requested_radius(name, factor):
    for t_max in [2.0, 8.0]:
        surface = make(name, t_max=t_max)
        assert _min_boundary_r(surface) >= factor * t_max * 0.999, name


def test_sphere_control_radius_cap():
    with pytest.raises(ConfigError):
        make("sphere_control", t_max=1.9)
    surface = make("sphere_control", t_max=1.5)
    assert _min_boundary_r(surface) > 1.5


def test_param_overrides():
    # chart sizes follow from t_max alone; only the profile constant is set
    with pytest.raises(ConfigError, match="halfwidth"):
        make("plane", t_max=4.0, params={"halfwidth": 9.0})
    with pytest.raises(ConfigError, match="v_max"):
        make("catenoid", params={"v_max": 2.0})
    surface = make("hyperbolic_catenoid", t_max=2.0,
                   params={"c": 2.0})
    assert surface.label == "hyperbolic_catenoid"


@pytest.mark.parametrize("bad", ["x", float("nan"), float("inf"), 0.0, True])
def test_profile_constant_must_be_finite_positive(bad):
    with pytest.raises(ConfigError, match="'c'"):
        make("hyperbolic_catenoid", t_max=2.0, params={"c": bad})


# --- hyperbolic catenoid -------------------------------------------------

HC = make("hyperbolic_catenoid")
RHO0 = catalog.neck_radius(1.0)


def test_neck_radius_frozen_and_monotone():
    # sinh(rho0) cosh(rho0) = c, so rho0 = asinh(2c)/2
    assert RHO0 == pytest.approx(0.7218177375894052, rel=1e-14)
    m = np.sinh(RHO0) * np.cosh(RHO0)
    assert m == pytest.approx(1.0, abs=1e-10)
    cs = np.linspace(0.1, 5.0, 25)
    rhos = [catalog.neck_radius(float(c)) for c in cs]
    assert np.all(np.diff(rhos) > 0)


def test_no_neck_below_threshold():
    with pytest.raises(ConfigError):
        catalog.neck_radius(0.0)
    with pytest.raises(ConfigError):
        make("hyperbolic_catenoid", params={"c": -0.5})


def test_neck_frame_golden_ratio_values():
    fb = frames(HC, np.float64(0.4), np.float64(0.0))
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    # principal curvature at the neck is coth(rho0), and coth^2(rho0) = phi^2
    assert float(fb.normBsq) == pytest.approx(2.0 * phi * phi, rel=1e-9)
    assert float(fb.K) == pytest.approx(-1.0 - phi * phi, rel=1e-9)
    # g_theta_theta = sinh^2(rho0) = 1/phi at the neck
    assert float(fb.g11) == pytest.approx(1.0 / phi, rel=1e-9)
    assert float(fb.g22) == pytest.approx(1.0, rel=1e-12)
    assert abs(float(fb.g12)) < 1e-12


def test_profile_first_integral_conserved():
    profile = solve_profile(1.0, 10.0)
    sigma = np.linspace(0.0, 10.0, 400)
    (rho, rho_d), (_, t_d) = profile.jets(sigma, 1)
    conserved = np.sinh(rho) * np.cosh(rho) ** 2 * t_d
    assert np.allclose(conserved, 1.0, atol=1e-9)
    # arclength parametrization: cosh^2 rho t'^2 + rho'^2 = 1
    speed = np.cosh(rho) ** 2 * t_d**2 + rho_d**2
    assert np.allclose(speed, 1.0, atol=1e-9)


def test_profile_metric_along_sigma():
    rng = np.random.default_rng(1)
    sig = rng.uniform(-8.0, 8.0, 80)
    theta = rng.uniform(0, 2 * np.pi, 80)
    fb = frames(HC, theta, sig)
    (profile_rho,), _ = solve_profile(1.0, 9.0).jets(sig, 0)
    assert np.allclose(fb.g11, np.sinh(profile_rho) ** 2, rtol=1e-9)
    assert np.allclose(fb.g22, 1.0, atol=1e-9)


def test_mirror_symmetry():
    sig = np.array([0.7, 2.3])
    th = np.array([0.4, 1.1])
    Fp = HC.eval(th, sig)
    Fm = HC.eval(th, -sig)
    # rho even, t odd: x0, x2, x3 even in sigma; x1 odd
    assert np.allclose(Fp[0], Fm[0], rtol=1e-12)
    assert np.allclose(Fp[1], -Fm[1], rtol=1e-12)
    assert np.allclose(Fp[2:], Fm[2:], rtol=1e-12)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_chart_mirrors_hold_bitwise(name):
    # F(-u, v) = S_u F(u, v) and F(u, -v) = S_v F(u, v) at orders 0-2:
    # F_u and F_uv change sign under u -> -u, F_v and F_uv under v -> -v.
    surface = make(name)
    (u0, u1), (v0, v1) = surface.domain
    rng = np.random.default_rng(11)
    U = rng.uniform(u0, u1, 4000)
    V = rng.uniform(v0, v1, 4000)
    jet = surface.jet(U, V, 2)
    for signs, image, odd in ((surface.mirror_u, surface.jet(-U, V, 2),
                               (1, 4)),
                              (surface.mirror_v, surface.jet(U, -V, 2),
                               (2, 4))):
        S = np.array(signs, dtype=np.float64)[:, None]
        for k, (got, ref) in enumerate(zip(image, jet)):
            want = -S * ref if k in odd else S * ref
            assert np.array_equal(got, want), (name, signs, k)


def test_minimality_oracle_inner_region():
    chk = check_surface(HC, n=500, seed=2, max_r=8.5)
    assert chk["max_normH"] <= 1e-11
    assert chk["max_model_residual"] <= 1e-9
    # The unit normal is projected against the tangent plane, so the
    # normalized tangency of the second form sits at float64 epsilon.
    assert chk["max_B_tangency"] <= 1e-12


def test_degenerate_normal_fails_construction():
    # Past sigma ~ 12.3 the hyperboloid normal seed cancels to <X,X> <= 0;
    # the build must fail, not pass NaN through the minimality oracle.
    with pytest.raises(GeometryError, match="<X,X>"):
        make("hyperbolic_catenoid", t_max=14.0)


def test_saddle_distance_is_asinh_2c():
    # the point diametrically across the neck sits at extrinsic distance
    # asinh(2c) from the default pole (geodesic through the axis)
    pole = HC.default_pole()
    far = HC.eval(np.float64(np.pi), np.float64(0.0))
    d = HC.form.distance(pole, far)
    assert float(d) == pytest.approx(1.4436354751788103, rel=1e-12)


def test_curvature_decays_to_ambient():
    fb = frames(HC, np.full(4, 0.2), np.array([4.0, 6.0, 8.0, 10.0]))
    assert np.all(np.abs(fb.K + 1.0) < 1e-4)
    assert np.all(np.diff(np.abs(fb.K + 1.0)) < 0)


def test_custom_c_surface_passes_oracle():
    surface = make("hyperbolic_catenoid", t_max=4.0,
                   params={"c": 0.3})
    chk = check_surface(surface, n=300, seed=5, max_r=4.2)
    assert chk["max_normH"] <= 1e-6


def _scipy_solution(fun, y0, span):
    """SciPy's RK45 `OdeSolution` at the profile's tolerances."""
    from scipy.integrate import solve_ivp

    return solve_ivp(fun, (0.0, span), y0, "RK45", rtol=1e-10, atol=1e-12,
                     dense_output=True).sol


def _segments(sol):
    """An `OdeSolution`'s segments, stacked as `rk45_segments` returns them."""
    segs = sol.interpolants
    return (sol.ts, np.array([s.t_old for s in segs]),
            np.array([s.h for s in segs]),
            np.array([s.y_old for s in segs]).T,
            np.array([s.Q for s in segs]).transpose(1, 2, 0))


def _assert_segments_equal(got, ref):
    for name, a, b in zip(("knots", "t_old", "h", "y_old", "Q"), got, ref):
        assert a.shape == b.shape and np.array_equal(a, b), name


def _profile_rhs(c):
    def rhs(_s, y):
        rho = y[0]
        m = np.sinh(rho) * np.cosh(rho)
        return [y[1], c * c * np.cosh(2.0 * rho) / m**3,
                c / (m * np.cosh(rho))]
    return rhs


def test_profile_values_match_ode_solution():
    # The in-package stepper repeats SciPy's RK45 bit for bit: same
    # knots, segment starts, steps, start states and dense-output Q.
    from extballs.catalog.profiles import neck_radius, rk45_segments

    rng = np.random.default_rng(4)
    for c in (0.3, 1.0, 2.0):
        for s_max in (4.0, 12.0):
            y0, span = [neck_radius(c), 0.0, 0.0], s_max * 1.02 + 0.1
            got = rk45_segments(_profile_rhs(c), y0, span, rtol=1e-10,
                                atol=1e-12)
            sol = _scipy_solution(_profile_rhs(c), y0, span)
            _assert_segments_equal(got, _segments(sol))
            profile = solve_profile(c, s_max)
            _assert_segments_equal(
                (profile.knots, profile.t_old, profile.h, profile.y_old,
                 profile.Q),
                got[:3] + (got[3][[0, 2]], got[4][[0, 2]]))
            # One polynomial pass per point evaluates what SciPy's
            # interpolants do, also past the last knot.
            past = profile.knots[-1] + np.array([1e-9, 0.3, 2.0])
            sigma = np.concatenate([[0.0], profile.knots, rng.uniform(
                0.0, profile.knots[-1], 500), past])
            ref = sol(sigma)[[0, 2]]
            vals = np.stack(profile.profile_values(sigma))
            assert np.all(np.abs(vals - ref) <= 1e-14 * np.abs(ref))

    # jets mirror |sigma|: rho even, t odd
    (rho,), (t,) = profile.jets(-sigma, 0)
    assert np.array_equal(rho, vals[0]) and np.array_equal(t, -vals[1])


def test_rk45_rejected_steps_match_scipy():
    # A forcing that jumps at s = 1/2 makes the error control reject the
    # steps that cross it (each rejection costs six more right-hand
    # sides), and the step after a rejection may not grow.
    from extballs.catalog.profiles import rk45_segments

    calls = []

    def rhs(s, y):
        calls.append(s)
        return [y[1], -y[0] + (50.0 if s > 0.5 else 0.0)]

    got = rk45_segments(rhs, [1.0, 0.0], 1.0, rtol=1e-10, atol=1e-12)
    assert len(calls) > 6 * len(got[2]) + 2
    _assert_segments_equal(
        got, _segments(_scipy_solution(rhs, [1.0, 0.0], 1.0)))


def test_profile_self_check_rejects_foreign_segments():
    import dataclasses

    from extballs.catalog.profiles import _check_continuity
    from extballs.errors import ConstructionError

    profile = solve_profile(1.0, 6.0)
    _check_continuity(profile)
    bent = dataclasses.replace(profile, Q=profile.Q * (1.0 + 1e-9))
    with pytest.raises(ConstructionError):
        _check_continuity(bent)


# --- declared chart symmetries -------------------------------------------

U_ISOMETRIC = ["plane", "catenoid", "helicoid", "h2_in_h3",
               "hyperbolic_catenoid"]
DIHEDRAL = ["enneper", "sphere_control"]

# Largest change of each density at (u, v) against (0, v), per unit area
# at (0, v), over 2,000 seeded points with r <= t_max at catalog defaults:
# 1.8e-15 in R^3 and 9.3e-10 in H^3, where the chart carries cosh u and
# sinh u factors of up to e^8.8 whose roundoff the metric amplifies.
_U_SHIFT_BOUND = {"R^3": 1e-14, "H^3": 5e-9}


def test_chart_symmetries_are_pinned():
    declared = {name: make(name).symmetry for name in ALL_NAMES}
    assert declared == {**dict.fromkeys(U_ISOMETRIC, "u_shift"),
                        **dict.fromkeys(DIHEDRAL, "dihedral")}


@pytest.mark.parametrize("name", U_ISOMETRIC)
def test_u_isometry_densities_depend_on_v_alone(name):
    # The full-cell cache integrates one column of cells on these charts,
    # so the declared symmetry is checked here rather than trusted: the
    # three cached densities at (u, v) equal those at (0, v).
    entry = catalog.lookup(name)
    surface = entry.surface()
    (u0, u1), (v0, v1) = surface.domain
    rng = np.random.default_rng(7)
    U = rng.uniform(u0, u1, 20000)
    V = rng.uniform(v0, v1, 20000)
    r = surface.form.distance(surface.default_pole(), surface.eval(U, V))
    inside = r <= entry.default_t_max
    U, V = U[inside][:2000], V[inside][:2000]
    assert len(U) == 2000

    def densities(UU):
        fb = frames(surface, UU, V)
        w = np.sqrt(fb.detg)
        return np.stack([w, fb.normBsq * w, fb.K * w])

    at_zero = densities(np.zeros_like(U))
    err = np.max(np.abs(densities(U) - at_zero) / at_zero[0])
    assert err <= _U_SHIFT_BOUND[entry.ambient[:3]], err


# Largest change of each density at an image of (u, v) under u -> -u,
# v -> -v or u <-> v, per unit area at (u, v), over 2,000 seeded points
# with r <= t_max at catalog defaults: 7.7e-15 on Enneper (u <-> v; the
# two reflections read 0) and 2.2e-15 on the sphere control.
_DIHEDRAL_BOUND = 5e-14


@pytest.mark.parametrize("name", DIHEDRAL)
def test_dihedral_densities_match_images(name):
    # The full-cell cache integrates one octant of cells on these charts,
    # so the declared symmetry is checked here rather than trusted: the
    # three cached densities agree at (u, v), (-u, v), (u, -v), (v, u).
    entry = catalog.lookup(name)
    surface = entry.surface()
    (u0, u1), (v0, v1) = surface.domain
    rng = np.random.default_rng(7)
    U = rng.uniform(u0, u1, 20000)
    V = rng.uniform(v0, v1, 20000)
    r = surface.form.distance(surface.default_pole(), surface.eval(U, V))
    inside = r <= entry.default_t_max
    U, V = U[inside][:2000], V[inside][:2000]
    assert len(U) == 2000

    def densities(UU, VV):
        fb = frames(surface, UU, VV)
        w = np.sqrt(fb.detg)
        return np.stack([w, fb.normBsq * w, fb.K * w])

    at_point = densities(U, V)
    for image in ((-U, V), (U, -V), (V, U)):
        err = np.max(np.abs(densities(*image) - at_point) / at_point[0])
        assert err <= _DIHEDRAL_BOUND, err
