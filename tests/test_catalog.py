"""Catalog registry, chart sizing, and the ODE-built hyperbolic catenoid."""

import numpy as np
import pytest

from extballs import catalog
from extballs.catalog import _min_boundary_r, solve_profile
from extballs.errors import ConfigError
from extballs.immersion import check_surface, frames

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
        catalog.make("moebius")
    with pytest.raises(ConfigError):
        catalog.make("plane", params={"twist": 3})
    with pytest.raises(ConfigError):
        catalog.make("catenoid", t_max=-2.0)


@pytest.mark.parametrize("name,factor", [
    ("plane", 1.25), ("catenoid", 1.3), ("enneper", 1.3),
    ("helicoid", 1.15), ("h2_in_h3", 1.1),
])
def test_chart_sizing_covers_requested_radius(name, factor):
    for t_max in [2.0, 8.0]:
        surface = catalog.make(name, t_max=t_max)
        assert _min_boundary_r(surface) >= factor * t_max * 0.999, name


def test_sphere_control_radius_cap():
    with pytest.raises(ConfigError):
        catalog.make("sphere_control", t_max=1.9)
    surface = catalog.make("sphere_control", t_max=1.5)
    assert _min_boundary_r(surface) > 1.5


def test_param_overrides():
    surface = catalog.make("plane", t_max=4.0, params={"halfwidth": 9.0})
    assert surface.domain == ((-9.0, 9.0), (-9.0, 9.0))
    surface = catalog.make("catenoid", params={"v_max": 2.0})
    assert surface.domain[1] == (-2.0, 2.0)


# --- hyperbolic catenoid -------------------------------------------------

HC = catalog.make("hyperbolic_catenoid")
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
        catalog.make("hyperbolic_catenoid", params={"c": -0.5})


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
    rho, rho_d, _, _, t_d, _ = profile.jets(sigma)
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
    profile_rho = solve_profile(1.0, 9.0).jets(sig)[0]
    assert np.allclose(fb.g11, np.sinh(profile_rho) ** 2, rtol=1e-9)
    assert np.allclose(fb.g22, 1.0, atol=1e-9)


def test_mirror_symmetry():
    sig = np.array([0.7, 2.3])
    th = np.array([0.4, 1.1])
    Fp = HC.eval(th, sig)
    Fm = HC.eval(th, -sig)
    # rho even, t odd: x0, x2, x3 even in sigma; x1 odd
    assert np.allclose(Fp[..., 0], Fm[..., 0], rtol=1e-12)
    assert np.allclose(Fp[..., 1], -Fm[..., 1], rtol=1e-12)
    assert np.allclose(Fp[..., 2:], Fm[..., 2:], rtol=1e-12)


def test_minimality_oracle_inner_region():
    chk = check_surface(HC, n=500, seed=2, max_r=8.5)
    assert chk["max_normH"] <= 1e-6
    assert chk["max_model_residual"] <= 1e-9
    # Normalized tangency of the second form sits at the same float64
    # frame-error floor as the mean curvature at r <= 8.5 (a few e-9).
    assert chk["max_B_tangency"] <= 1e-8


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
    surface = catalog.make("hyperbolic_catenoid", t_max=4.0,
                           params={"c": 0.3})
    chk = check_surface(surface, n=300, seed=5, max_r=4.2)
    assert chk["max_normH"] <= 1e-6


def test_profile_values_match_ode_solution():
    from extballs.catalog.profiles import integrate_profile

    sol = integrate_profile(1.0, 12.0)
    profile = solve_profile(1.0, 12.0)
    rng = np.random.default_rng(4)
    past = profile.knots[-1] + np.array([1e-9, 0.3, 2.0])
    sigma = np.concatenate([[0.0], profile.knots,
                            rng.uniform(0.0, profile.knots[-1], 500), past])
    ref = sol(sigma)[[0, 2]]
    got = np.stack(profile.profile_values(sigma))
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
    # jets mirror |sigma|: rho even, t odd
    rho, _, _, t, _, _ = profile.jets(-sigma)
    assert np.array_equal(rho, got[0]) and np.array_equal(t, -got[1])


def test_profile_self_check_rejects_foreign_segments():
    import dataclasses

    from extballs.catalog.profiles import (_check_against_solution,
                                           integrate_profile)
    from extballs.errors import ConstructionError

    profile = solve_profile(1.0, 6.0)
    bent = dataclasses.replace(profile, Q=profile.Q * (1.0 + 1e-9))
    with pytest.raises(ConstructionError):
        _check_against_solution(bent, integrate_profile(1.0, 6.0))
