"""Catalog registry, chart sizing, and the closed-form hyperbolic catenoid."""

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


@pytest.mark.parametrize("name", ALL_NAMES)
def test_chart_jets_continue_to_complex_points(name):
    # The Hessian route reads an order-1 jet at (u, v) + i eta d: its real
    # parts must be the real jet, and its imaginary parts over eta the
    # partials along d of the real order-2 jet.  Besides the seeded
    # points: the neck sigma = 0 of the hyperbolic catenoid, where rho'
    # is not analytic in sigma, and the sphere's series branch
    # w = u^2 + v^2 <= _SERIES_CUT, with the chart origin itself.
    surface = make(name)
    (u0, u1), (v0, v1) = surface.domain
    rng = np.random.default_rng(13)
    near = rng.uniform(-0.07, 0.07, (2, 50))
    U = np.concatenate([rng.uniform(u0, u1, 4000), near[0] % (u1 - u0)
                        if surface.periodic_u else near[0], [0.0, 1.0]])
    V = np.concatenate([rng.uniform(v0, v1, 4000), near[1], [0.0, 0.0]])
    d = rng.normal(size=(2, U.size))
    d /= np.hypot(*d)
    eta = 1e-30
    got = surface.jet(U + 1j * eta * d[0], V + 1j * eta * d[1], 1)
    F, Fu, Fv, Fuu, Fuv, Fvv = surface.jet(U, V, 2)
    along = (d[0] * Fu + d[1] * Fv, d[0] * Fuu + d[1] * Fuv,
             d[0] * Fuv + d[1] * Fvv)
    for k, (c, ref, dref) in enumerate(zip(got, (F, Fu, Fv), along)):
        assert np.iscomplexobj(c), (name, k)
        re = np.max(np.abs(c.real - ref) / np.maximum(np.abs(ref), 1.0))
        im = np.max(np.abs(c.imag / eta - dref)
                    / np.maximum(np.abs(dref), 1.0))
        assert re <= 1e-14 and im <= 1e-11, (name, k, re, im)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_chart_jets_broadcast_a_grid_bitwise(name):
    # build_field samples a block of nodes as a column of u against a row
    # of v; every order of every chart must give the jet of the meshed
    # grid bitwise, its shape included.
    surface = make(name)
    (u0, u1), (v0, v1) = surface.domain
    u = np.linspace(u0, u1, 7)[1:-1]
    v = np.concatenate([np.linspace(v0, v1, 41)[1:-1], [0.0]])
    U, V = np.meshgrid(u, v, indexing="ij")
    for order in (0, 1, 2):
        grid = surface.jet(u[:, None], v[None, :], order)
        for k, (got, want) in enumerate(zip(grid,
                                            surface.jet(U, V, order))):
            assert got.shape == want.shape, (name, order, k)
            assert np.array_equal(got, want), (name, order, k)


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


def _mpmath_profile(c, sigma):
    """rho and t at ascending sigma from mpmath at 30 digits: rho from
    cosh 2 rho = k cosh 2 sigma, t by quadrature of the first integral's
    t' = c / (sinh rho cosh^2 rho) between consecutive points."""
    import mpmath as mp

    with mp.workdps(30):
        c = mp.mpf(c)
        k = mp.sqrt(1 + 4 * c * c)

        def rho(s):
            return mp.acosh(k * mp.cosh(2 * s)) / 2

        def t_d(s):
            r = rho(s)
            return c / (mp.sinh(r) * mp.cosh(r) ** 2)

        rhos, ts, t, prev = [], [], mp.mpf(0), mp.mpf(0)
        for s in map(mp.mpf, sigma):
            t += mp.quad(t_d, [prev, s])
            prev = s
            rhos.append(float(rho(s)))
            ts.append(float(t))
    return np.array(rhos), np.array(ts)


@pytest.mark.parametrize("c", [0.3, 1.0, 2.0])
def test_profile_matches_mpmath(c):
    # rho is in closed form and t comes from the panel table: both sit at
    # rounding against 30-digit references over the whole default chart.
    sigma_max = 8.0 + catalog.neck_radius(c) + 3.0
    rng = np.random.default_rng(4)
    sigma = np.sort(np.concatenate([[0.0, sigma_max], rng.uniform(
        0.0, sigma_max, 198)]))
    ref_rho, ref_t = _mpmath_profile(c, sigma)
    profile = solve_profile(c, sigma_max)
    (rho,), (t,) = profile.jets(sigma, 0)
    assert np.max(np.abs(rho - ref_rho) / ref_rho) <= 1e-14
    assert np.max(np.abs(t - ref_t)) <= 1e-14
    # jets mirror |sigma|: rho even, t odd
    (rho_m,), (t_m,) = profile.jets(-sigma, 0)
    assert np.array_equal(rho_m, rho) and np.array_equal(t_m, -t)


@pytest.mark.parametrize("c", [0.01, 0.02, 0.05, 0.1])
def test_profile_t_at_small_c(c):
    # The poles of t' sit at sigma = +-i atan(2c)/2, so the t table's
    # panels narrow to atan(2c)/4 below c = 0.3; 0.125-wide panels left t
    # off by 2.0e-13 at c = 0.1 up to 9.6e-7 at c = 0.01.  The points
    # are dense over the neck, where the error arose, and cover the chart.
    sigma_max = 8.0 + catalog.neck_radius(c) + 3.0
    sigma = np.concatenate([np.linspace(0.0, 0.5, 41)[:-1],
                            np.linspace(0.5, sigma_max, 60)])
    _, ref_t = _mpmath_profile(c, sigma)
    (_,), (t,) = solve_profile(c, sigma_max).jets(sigma, 0)
    assert np.max(np.abs(t - ref_t)) <= 1e-15


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
