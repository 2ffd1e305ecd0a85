"""Immersion calculus: metric, second fundamental form, radial Laplacian,
on charts with closed-form geometry."""

import numpy as np
import pytest

from extballs import catalog
from extballs.errors import ConfigError, ImmersionError
from extballs.immersion import ParametricSurface, frames
from extballs.space_forms import SpaceForm
from oracles import (check_surface, gauss_equation_residual, laplacian_r,
                     make, radial_laplacian_identity)

CATENOID = make("catenoid")
ENNEPER = make("enneper")
H2 = make("h2_in_h3")
SPHERE = make("sphere_control")


def test_catenoid_origin_curvatures():
    fb = frames(CATENOID, np.float64(0.0), np.float64(0.0))
    # neck point: K = -1, |B|^2 = 2, H = 0
    assert float(fb.K) == pytest.approx(-1.0, abs=1e-12)
    assert float(fb.normBsq) == pytest.approx(2.0, abs=1e-12)
    assert abs(float(fb.H)) < 1e-13


def test_enneper_origin_second_form():
    fb = frames(ENNEPER, np.float64(0.0), np.float64(0.0))
    assert float(fb.K) == pytest.approx(-4.0, abs=1e-12)
    assert float(fb.normBsq) == pytest.approx(8.0, abs=1e-12)
    assert np.allclose(fb.b11 * fb.N, [0.0, 0.0, 2.0], atol=1e-13)
    assert np.allclose(fb.b22 * fb.N, [0.0, 0.0, -2.0], atol=1e-13)
    assert np.allclose(fb.b12, 0.0, atol=1e-13)


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
    assert np.allclose(np.abs(fb.H), 1.0, atol=1e-10)
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
        surface = make(name)
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
    def jet(U, V, order):
        F = np.stack([U, U, np.zeros_like(U)])  # rank-1 map
        dU = np.stack([np.ones_like(U)] * 2 + [np.zeros_like(U)])
        z = np.zeros_like(F)
        return (F, dU, dU, z, z, z)[:(1, 3, 6)[order]]

    bad = ParametricSurface(form=SpaceForm(0.0),
                            domain=((-1, 1), (-1, 1)), jet=jet,
                            label="degenerate")
    with pytest.raises(ImmersionError):
        frames(bad, np.array([0.1]), np.array([0.2]))


def _flat_chart(domain, **kwargs):
    def jet(U, V, order):
        F = np.stack([U, V, np.zeros_like(U)])
        return (F,)
    return ParametricSurface(form=SpaceForm(0.0), domain=domain, jet=jet,
                             label="flat", **kwargs)


def test_unknown_symmetry_raises():
    with pytest.raises(ConfigError, match="'u_shift', 'dihedral'"):
        _flat_chart(((-1.0, 1.0), (-1.0, 1.0)), symmetry="mirror")


def test_dihedral_symmetry_needs_centred_domain():
    _flat_chart(((-1.0, 1.0), (-2.0, 2.0)), symmetry="dihedral")
    with pytest.raises(ConfigError, match=r"\(\(-1\.0, 1\.5\), "):
        _flat_chart(((-1.0, 1.5), (-1.0, 1.0)), symmetry="dihedral")


def test_u_shift_symmetry_needs_periodic_or_zero():
    # The cell cache integrates a u_shift chart's rows at u = 0.
    _flat_chart(((-1.0, 2.0), (-1.0, 1.0)), symmetry="u_shift")
    _flat_chart(((1.0, 2.0), (-1.0, 1.0)), symmetry="u_shift",
                periodic_u=True)
    for domain in (((1.0, 2.0), (-1.0, 1.0)), ((0.0, 2.0), (-1.0, 1.0))):
        with pytest.raises(ConfigError, match="u_shift.*containing 0"):
            _flat_chart(domain, symmetry="u_shift")


def test_mirror_declarations_are_checked():
    _flat_chart(((-1.0, 1.0), (-2.0, 2.0)), mirror_u=(-1, 1, 1),
                mirror_v=(1, -1, 1))
    _flat_chart(((0.0, 2.0), (-1.0, 1.0)), periodic_u=True,
                mirror_u=(1, -1, 1))
    for signs in ((-1, 1), (-1, 1, 1, 1), (-1, 0, 1), (2, 1, 1)):
        with pytest.raises(ConfigError, match="mirror_v must be 3 signs"):
            _flat_chart(((-1.0, 1.0), (-1.0, 1.0)), mirror_v=signs)
    for domain, periodic, name in ((((-1.0, 1.5), (-1.0, 1.0)), False, "u"),
                                   (((1.0, 2.0), (-1.0, 1.0)), True, "u"),
                                   (((-1.0, 1.0), (-1.0, 2.0)), False, "v")):
        with pytest.raises(ConfigError, match=f"mirror_{name} needs its "
                                              "axis centred at 0"):
            _flat_chart(domain, periodic_u=periodic,
                        **{f"mirror_{name}": (1, 1, -1)})


def test_laplacian_r_plane_closed_form():
    surface = make("plane")
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
        surface = make(name)
        pole = surface.default_pole()
        (u0, u1), (v0, v1) = surface.domain
        U = rng.uniform(u0 + 0.3, u1 - 0.3, 40)
        V = rng.uniform(v0 + 0.3, v1 - 0.3, 40)
        F = surface.eval(U, V)
        r = surface.form.distance(pole, F)
        keep = (r > 0.3) & (r < 0.8 * surface_reach(surface))
        U, V = U[keep], V[keep]
        assert U.size > 10, name
        fd = laplacian_r(surface, U, V, pole)
        closed = radial_laplacian_identity(surface, U, V, pole)
        scale = np.maximum(1.0, np.abs(closed))
        assert float(np.max(np.abs(fd - closed) / scale)) < 1e-5, name


def test_laplacian_r_rejects_pole():
    surface = make("plane")
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
    ip = CATENOID.form.inner
    assert np.allclose(ip(amb, fb.N), 0.0, atol=1e-10)
    assert np.allclose(ip(fb.radial, fb.N) ** 2, fb.normGradPerp**2,
                       atol=1e-10)
    assert np.allclose(ip(amb, amb), fb.normGradPr**2, atol=1e-10)


def _chart_points(surface, n=400):
    """Random points over most of a chart, plus two near its origin
    (where the sphere cap's sinc series takes over)."""
    (u0, u1), (v0, v1) = surface.domain
    rng = np.random.default_rng(11)
    U = np.concatenate([[0.03, 1e-3], rng.uniform(u0, u1, n)])
    V = np.concatenate([[0.04, -2e-3], rng.uniform(0.8 * v0, 0.8 * v1, n)])
    return U, V


@pytest.mark.parametrize("name", sorted(catalog.entries))
def test_jet_orders_agree_bitwise(name):
    surface = make(name)
    U, V = _chart_points(surface)
    full = surface.jet(U, V, 2)
    assert len(full) == 6
    for order, size in ((0, 1), (1, 3)):
        low = surface.jet(U, V, order)
        assert len(low) == size, order
        for k, (a, b) in enumerate(zip(low, full)):
            assert np.array_equal(a, b), (order, k)
    assert np.array_equal(surface.eval(U, V), full[0])


@pytest.mark.parametrize("name", sorted(catalog.entries))
def test_radial_frames_bitwise_equal_frames(name):
    from extballs.immersion import radial_frames

    surface = make(name)
    U, V = _chart_points(surface)
    pole = surface.default_pole()
    full = frames(surface, U, V, pole=pole)
    first = radial_frames(surface, U, V, pole=pole)
    for key in ("F", "Fu", "Fv", "g11", "g12", "g22", "detg", "r",
                "radial", "gradPr", "normGradPr", "normGradPerp"):
        assert np.array_equal(getattr(first, key), getattr(full, key)), key
    assert first.N is None and first.b11 is None and first.K is None


@pytest.mark.parametrize("name", sorted(catalog.entries))
def test_jet_vectors_lead_with_the_ambient_axis(name):
    surface = make(name)
    dim = surface.form.dim
    U, V = _chart_points(surface)
    for u, v in ((U[0], V[0]), (U, V), (U.reshape(6, 67), V.reshape(6, 67))):
        for order in (0, 1, 2):
            for part in surface.jet(u, v, order):
                assert part.shape == (dim,) + np.shape(u), (order, np.shape(u))


@pytest.mark.parametrize("name", sorted(catalog.entries))
def test_frames_of_a_block_equal_frames_of_its_ravel(name):
    # Field sampling passes 2-D meshgrid blocks and the critical scan a
    # (5, n) block; every field must equal the flat batch's bitwise.
    from extballs.immersion import radial_frames

    surface = make(name)
    U, V = _chart_points(surface)
    pole = surface.default_pole()
    for fn in (frames, radial_frames):
        block = fn(surface, U.reshape(6, 67), V.reshape(6, 67), pole=pole)
        flat = fn(surface, U, V, pole=pole)
        for key, got in vars(block).items():
            ref = getattr(flat, key)
            if ref is None:
                assert got is None, key
            elif key == "gradPr":
                assert np.array_equal(got.reshape(ref.shape), ref), key
            else:
                assert got.shape == ref.shape[:-1] + (6, 67), key
                assert np.array_equal(got.reshape(ref.shape), ref), key


def _vector_contraction(surface, U, V):
    """|B|^2 and K from three ambient second-form vectors.

    The general-codimension route: project each covariant second partial
    onto the normal space, then contract the six Minkowski products of
    the projections.  Kept as an independent reference for the scalar
    kernel of `frames`.
    """
    form = surface.form
    ip = form.inner
    F, Fu, Fv, Fuu, Fuv, Fvv = surface.jet(U, V, 2)
    g11, g12, g22 = ip(Fu, Fu), ip(Fu, Fv), ip(Fv, Fv)
    detg = g11 * g22 - g12 * g12

    def normal_part(D):
        w1, w2 = ip(D, Fu), ip(D, Fv)
        a1 = (g22 * w1 - g12 * w2) / detg
        a2 = (g11 * w2 - g12 * w1) / detg
        return D - a1 * Fu - a2 * Fv

    B11 = normal_part(Fuu + form.b * g11 * F)
    B12 = normal_part(Fuv + form.b * g12 * F)
    B22 = normal_part(Fvv + form.b * g22 * F)
    inv11, inv12, inv22 = g22 / detg, -g12 / detg, g11 / detg
    bb1111, bb1112, bb1122 = ip(B11, B11), ip(B11, B12), ip(B11, B22)
    bb1212, bb1222, bb2222 = ip(B12, B12), ip(B12, B22), ip(B22, B22)
    normBsq = (inv11 * inv11 * bb1111
               + 4.0 * inv11 * inv12 * bb1112
               + 2.0 * inv11 * inv22 * bb1212
               + 2.0 * inv12 * inv12 * (bb1212 + bb1122)
               + 4.0 * inv12 * inv22 * bb1222
               + inv22 * inv22 * bb2222)
    return np.maximum(normBsq, 0.0), form.b + (bb1122 - bb1212) / detg


@pytest.mark.parametrize("name", sorted(catalog.entries))
def test_scalar_form_matches_vector_contraction(name):
    entry = catalog.lookup(name)
    surface = entry.surface()
    (u0, u1), (v0, v1) = surface.domain
    pole = surface.default_pole()
    rng = np.random.default_rng(17)
    U = rng.uniform(u0, u1, 20000)
    V = rng.uniform(v0, v1, 20000)
    keep = surface.form.distance(pole, surface.eval(U, V)) \
        <= entry.default_t_max
    U, V = U[keep][:2000], V[keep][:2000]
    assert U.size == 2000
    fb = frames(surface, U, V)
    for got, ref in zip((fb.normBsq, fb.K), _vector_contraction(surface, U, V)):
        err = np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)
        assert float(np.max(err)) <= 1e-13


def test_degenerate_normal_raises():
    # A chart off the hyperboloid at a spacelike position: the metric is
    # Euclidean, so the det g floor passes, but the normal to F, F_u, F_v
    # is timelike and <X, X> < 0.
    def jet(U, V, order):
        one, zero = np.ones_like(U), np.zeros_like(U)
        F = np.stack([zero, U, V, one])
        Fu = np.stack([zero, one, zero, zero])
        Fv = np.stack([zero, zero, one, zero])
        z = np.zeros_like(F)
        return (F, Fu, Fv, z, z, z)[:(1, 3, 6)[order]]

    bad = ParametricSurface(form=SpaceForm(-1.0),
                            domain=((-1, 1), (-1, 1)), jet=jet,
                            label="spacelike")
    with pytest.raises(ImmersionError, match=r"'spacelike'.*<X,X> = -1"):
        frames(bad, np.array([0.1]), np.array([0.2]))
