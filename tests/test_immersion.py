"""Immersion calculus: metric, second fundamental form, Christoffels,
radial Laplacian, on charts with closed-form geometry."""

import numpy as np
import pytest

from extballs import catalog
from extballs.errors import ImmersionError
from extballs.immersion import (
    ParametricSurface,
    check_surface,
    christoffel,
    frame_at,
    frames,
    gauss_equation_residual,
    jet_from_positions,
    laplacian_r,
    radial_laplacian_identity,
)
from extballs.space_forms import SpaceForm

CATENOID = catalog.make("catenoid")
ENNEPER = catalog.make("enneper")
H2 = catalog.make("h2_in_h3")
SPHERE = catalog.make("sphere_control")


def test_catenoid_origin_curvatures():
    fb = frame_at(CATENOID, 0.0, 0.0)
    # neck point: K = -1, |B|^2 = 2, H = 0
    assert float(fb.K) == pytest.approx(-1.0, abs=1e-12)
    assert float(fb.normBsq) == pytest.approx(2.0, abs=1e-12)
    assert float(fb.normH) < 1e-13


def test_enneper_origin_second_form():
    fb = frame_at(ENNEPER, 0.0, 0.0)
    assert float(fb.K) == pytest.approx(-4.0, abs=1e-12)
    assert float(fb.normBsq) == pytest.approx(8.0, abs=1e-12)
    assert np.allclose(fb.B11, [0.0, 0.0, 2.0], atol=1e-13)
    assert np.allclose(fb.B22, [0.0, 0.0, -2.0], atol=1e-13)
    assert np.allclose(fb.B12, 0.0, atol=1e-13)


def test_enneper_curvature_closed_form():
    # K = -4 / (1 + u^2 + v^2)^4 for the standard parametrization
    rng = np.random.default_rng(2)
    U = rng.uniform(-1.5, 1.5, 40)
    V = rng.uniform(-1.5, 1.5, 40)
    fb = frames(ENNEPER, U, V)
    K_exact = -4.0 / (1.0 + U**2 + V**2) ** 4
    assert np.allclose(fb.K, K_exact, rtol=1e-10)


def test_h2_is_totally_geodesic():
    rng = np.random.default_rng(4)
    U = rng.uniform(-6.0, 6.0, 60)
    V = rng.uniform(-5.5, 5.5, 60)
    fb = frames(H2, U, V)
    assert float(np.max(fb.normBsq)) < 1e-14
    assert float(np.max(np.abs(fb.K + 1.0))) < 1e-10
    # Fermi metric is diag(cosh^2 v, 1).  g11 comes from the Minkowski
    # product cosh^2(v) * (cosh^2 u - sinh^2 u), which cancels two
    # cosh^2(u)-sized terms, so its relative error floor is cosh^2(u) * eps
    # (about 9e-12 at |u| = 6).
    assert np.allclose(fb.g11, np.cosh(V) ** 2, rtol=1e-10)
    assert np.allclose(fb.g22, 1.0, atol=1e-13)
    assert np.allclose(fb.g12, 0.0, atol=1e-8)


def test_sphere_control_unit_mean_curvature():
    rng = np.random.default_rng(6)
    U = rng.uniform(-1.4, 1.4, 50)
    V = rng.uniform(-1.4, 1.4, 50)
    fb = frames(SPHERE, U, V)
    assert np.allclose(fb.normH, 1.0, atol=1e-10)
    assert np.allclose(fb.K, 1.0, atol=1e-10)
    assert np.allclose(fb.normBsq, 2.0, atol=1e-10)


def test_gauss_equation_on_minimal_charts():
    rng = np.random.default_rng(8)
    for surface, span in [(CATENOID, 2.5), (ENNEPER, 2.0), (H2, 5.0)]:
        (u0, u1), (v0, v1) = surface.domain
        U = rng.uniform(max(u0, -span), min(u1, span), 500)
        V = rng.uniform(max(v0, -span), min(v1, span), 500)
        res = gauss_equation_residual(surface, U, V)
        assert float(np.max(res)) < 1e-8, surface.label


def test_minimality_oracle_sampled():
    for name in ["plane", "catenoid", "enneper", "helicoid", "h2_in_h3"]:
        surface = catalog.make(name)
        chk = check_surface(surface, n=500, seed=1,
                            max_r=0.9 * surface_reach(surface))
        assert chk["max_normH"] <= 1e-6, name
        assert chk["max_model_residual"] <= 1e-9, name


def test_nonminimal_control_fails_oracle():
    chk = check_surface(SPHERE, n=100, seed=1)
    assert chk["max_normH"] > 0.5


def surface_reach(surface):
    from extballs.catalog import _min_boundary_r
    return _min_boundary_r(surface)


def test_degenerate_metric_raises():
    def jet(U, V):
        F = np.stack([U, U, np.zeros_like(U)], axis=-1)  # rank-1 map
        dU = np.stack([np.ones_like(U)] * 2 + [np.zeros_like(U)], axis=-1)
        z = np.zeros_like(F)
        return F, dU, dU, z, z, z

    bad = ParametricSurface(form=SpaceForm(0.0),
                            domain=((-1, 1), (-1, 1)), jet=jet,
                            label="degenerate", minimal=False)
    with pytest.raises(ImmersionError):
        frames(bad, np.array([0.1]), np.array([0.2]))


def polar_plane():
    """Flat plane in polar coordinates: chart with known Christoffels."""
    def jet(U, V):
        U, V = np.broadcast_arrays(U, V)
        c, s = np.cos(U), np.sin(U)
        z = np.zeros_like(U)
        st = lambda *a: np.stack(np.broadcast_arrays(*a), axis=-1)
        F = st(V * c, V * s, z)
        Fu = st(-V * s, V * c, z)
        Fv = st(c, s, z)
        Fuu = st(-V * c, -V * s, z)
        Fuv = st(-s, c, z)
        Fvv = st(z, z, z)
        return F, Fu, Fv, Fuu, Fuv, Fvv

    return ParametricSurface(form=SpaceForm(0.0),
                             domain=((0.0, 2 * np.pi), (0.2, 5.0)), jet=jet,
                             label="polar_plane", minimal=True,
                             periodic_u=True)


def test_christoffel_polar_plane():
    surface = polar_plane()
    U = np.array([0.3, 1.1, 4.0])
    V = np.array([0.7, 1.9, 3.2])
    gamma = christoffel(surface, U, V)
    # nonzero symbols of ds^2 = v^2 du^2 + dv^2:
    #   gamma^v_uu = -v, gamma^u_uv = gamma^u_vu = 1/v
    assert np.allclose(gamma[:, 1, 0, 0], -V, atol=5e-9)
    assert np.allclose(gamma[:, 0, 0, 1], 1.0 / V, atol=5e-9)
    assert np.allclose(gamma[:, 0, 1, 0], 1.0 / V, atol=5e-9)
    mask = np.ones((2, 2, 2), dtype=bool)
    mask[1, 0, 0] = mask[0, 0, 1] = mask[0, 1, 0] = False
    assert float(np.max(np.abs(gamma[:, mask]))) < 5e-9


def test_christoffel_h2_fermi():
    # ds^2 = cosh^2(v) du^2 + dv^2:
    #   gamma^v_uu = -cosh v sinh v, gamma^u_uv = tanh v
    U = np.array([0.5, -1.0])
    V = np.array([0.8, 1.7])
    gamma = christoffel(H2, U, V)
    assert np.allclose(gamma[:, 1, 0, 0], -np.cosh(V) * np.sinh(V),
                       rtol=1e-7)
    assert np.allclose(gamma[:, 0, 0, 1], np.tanh(V), atol=1e-8)


def test_christoffel_symmetry_random_chart():
    rng = np.random.default_rng(12)
    U = rng.uniform(-1.5, 1.5, 20)
    V = rng.uniform(-1.5, 1.5, 20)
    gamma = christoffel(ENNEPER, U, V)
    assert np.allclose(gamma[..., 0, 1], gamma[..., 1, 0], atol=1e-12)


def test_laplacian_r_plane_closed_form():
    surface = catalog.make("plane")
    pole = surface.default_pole()
    # flat plane: laplacian of r is 1/r
    got = laplacian_r(surface, np.array([1.2, 0.3]), np.array([1.6, -1.1]),
                      pole)
    r = np.hypot([1.2, 0.3], [1.6, -1.1])
    assert np.allclose(got, 1.0 / r, rtol=1e-6)


def test_laplacian_r_h2_closed_form():
    pole = H2.default_pole()
    # totally geodesic plane: laplacian of r is coth(r); pick points at
    # chart distance with known extrinsic r
    U = np.array([0.0, 0.62])
    V = np.array([1.0, 0.0])
    r = np.arccosh(np.cosh(U) * np.cosh(V))
    got = laplacian_r(H2, U, V, pole)
    assert np.allclose(got, 1.0 / np.tanh(r), rtol=1e-6)


def test_laplacian_identity_on_catalog():
    rng = np.random.default_rng(3)
    for name in ["catenoid", "enneper", "h2_in_h3", "sphere_control"]:
        surface = catalog.make(name)
        pole = surface.default_pole()
        (u0, u1), (v0, v1) = surface.domain
        U = rng.uniform(u0 + 0.3, u1 - 0.3, 40)
        V = rng.uniform(v0 + 0.3, v1 - 0.3, 40)
        F = surface.eval(U, V)
        r = surface.form.distance(pole, F, check=False)
        keep = (r > 0.3) & (r < 0.8 * surface_reach(surface))
        U, V = U[keep], V[keep]
        assert U.size > 10, name
        fd = laplacian_r(surface, U, V, pole)
        closed = radial_laplacian_identity(surface, U, V, pole)
        scale = np.maximum(1.0, np.abs(closed))
        assert float(np.max(np.abs(fd - closed) / scale)) < 1e-5, name


def test_laplacian_r_rejects_pole():
    surface = catalog.make("plane")
    with pytest.raises(Exception):
        laplacian_r(surface, np.array([1e-5]), np.array([0.0]),
                    surface.default_pole())


def test_rotate90_metric_properties():
    rng = np.random.default_rng(5)
    U = rng.uniform(-1.0, 1.0, 30)
    V = rng.uniform(-1.0, 1.0, 30)
    fb = frames(ENNEPER, U, V)
    x = rng.standard_normal((30, 2))
    y = fb.rotate90(x)
    # g-orthogonal, g-norm preserved
    assert np.allclose(fb.metric_dot(x, y), 0.0, atol=1e-9)
    assert np.allclose(fb.metric_dot(y, y), fb.metric_dot(x, x), rtol=1e-10)
    # applying the rotation twice negates
    assert np.allclose(fb.rotate90(y), -x, atol=1e-10)


def test_radial_split_is_orthonormal():
    pole = CATENOID.default_pole()
    rng = np.random.default_rng(7)
    U = rng.uniform(0, 2 * np.pi, 50)
    V = rng.uniform(-3.0, 3.0, 50)
    fb = frames(CATENOID, U, V, pole=pole)
    # unit splitting of the ambient radial direction
    assert np.allclose(fb.normGradPr**2 + fb.normGradPerp**2, 1.0,
                       atol=1e-12)
    amb = fb.ambient_gradPr()
    perp = fb.ambient_gradPerp()
    ip = CATENOID.form.inner
    assert np.allclose(ip(amb, perp), 0.0, atol=1e-10)
    assert np.allclose(ip(amb, amb), fb.normGradPr**2, atol=1e-10)


def test_jet_from_positions_matches_analytic():
    def pos(U, V):
        return CATENOID.jet(U, V)[0]

    jet = jet_from_positions(pos, CATENOID.domain)
    U = np.array([0.8, 2.0])
    V = np.array([0.5, -1.2])
    exact = CATENOID.jet(U, V)
    approx = jet(U, V)
    # second differences with step ~6e-6 carry roundoff ~eps/h^2 ~ 1e-4
    for k, (e, a) in enumerate(zip(exact, approx)):
        tol = 1e-8 if k < 3 else 5e-4
        assert np.allclose(e, a, atol=tol), f"jet component {k}"


@pytest.mark.parametrize("name", ["catenoid", "hyperbolic_catenoid"])
def test_radial_frames_bitwise_equal_frames(name):
    from extballs.immersion import radial_frames

    surface = catalog.make(name, t_max=4.0)
    (u0, u1), (v0, v1) = surface.domain
    rng = np.random.default_rng(11)
    U = rng.uniform(u0, u1, 400)
    V = rng.uniform(0.8 * v0, 0.8 * v1, 400)
    pole = surface.default_pole()
    full = frames(surface, U, V, pole=pole)
    first = radial_frames(surface, U, V, pole=pole)
    for key in ("F", "Fu", "Fv", "g11", "g12", "g22", "detg", "r",
                "radial", "gradPr", "normGradPr", "normGradPerp"):
        assert np.array_equal(getattr(first, key), getattr(full, key)), key
    assert first.B11 is None and first.K is None
