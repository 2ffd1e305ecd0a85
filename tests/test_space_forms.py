"""Space-form geometry: metric, distances, radial fields, ball areas."""

import numpy as np
import pytest

from extballs.errors import ConfigError, PoleSingularity
from extballs.space_forms import SpaceForm
from oracles import geodesic_step

E3 = SpaceForm(0.0)
H3 = SpaceForm(-1.0)


def hyp_point(x1, x2, x3):
    """Lift spatial coordinates onto the b=-1 hyperboloid sheet."""
    x = np.asarray([0.0, x1, x2, x3], dtype=np.float64)
    x[0] = np.sqrt(1.0 + x1 * x1 + x2 * x2 + x3 * x3)
    return x


def test_rejects_positive_curvature():
    with pytest.raises(ConfigError):
        SpaceForm(1.0)


def test_kappa_and_flags():
    assert E3.kappa == 0.0 and not E3.curved and E3.dim == 3
    assert H3.kappa == 1.0 and H3.curved and H3.dim == 4
    k2 = SpaceForm(-4.0)
    assert k2.kappa == 2.0


def test_h_flat_is_reciprocal():
    t = np.array([0.25, 1.0, 2.0, 8.0])
    assert np.allclose(E3.h(t), 1.0 / t, rtol=1e-15)


def test_h_hyperbolic_frozen_value():
    # coth(1), high-precision reference
    assert H3.h(1.0) == pytest.approx(1.3130352854993315, rel=1e-14)
    # kappa scaling: h for b=-4 is 2 coth(2 t)
    assert SpaceForm(-4.0).h(0.5) == pytest.approx(
        2.0 / np.tanh(1.0), rel=1e-14)


def test_ball_area_circle_length_frozen_values():
    assert E3.ball_area(2.0) == pytest.approx(4.0 * np.pi, rel=1e-15)
    assert E3.circle_length(2.0) == pytest.approx(4.0 * np.pi, rel=1e-15)
    # 4 pi sinh^2(1/2) and 2 pi sinh(1)
    assert H3.ball_area(1.0) == pytest.approx(3.4122762652849024, rel=1e-14)
    assert H3.circle_length(1.0) == pytest.approx(7.384006872882645,
                                                 rel=1e-14)


def test_ball_identity_random_b_t():
    # b * area(t) + h_b(t) * length(t) == 2 pi for every curvature and
    # radius; the numerical tolerance scales with the cancelling terms,
    # which reach ~1e9 at b=-4, t=10
    rng = np.random.default_rng(11)
    forms = [SpaceForm(b) for b in (0.0, -0.5, -1.0, -4.0)]
    for _ in range(1000):
        form = forms[rng.integers(len(forms))]
        t = rng.uniform(1e-6, 10.0)
        area = form.ball_area(t)
        lhs = form.b * area + form.h(t) * form.circle_length(t)
        tol = 1e-12 * (1.0 + abs(form.b) * area)
        assert abs(lhs - 2.0 * np.pi) <= tol, (form.b, t)


def test_h_domain_errors():
    with pytest.raises(ValueError):
        E3.h(0.0)
    with pytest.raises(ValueError):
        H3.ball_area(-1.0)


def test_euclidean_distance_matches_norm():
    p = np.array([1.0, 2.0, 2.0])
    q = np.array([4.0, 6.0, 2.0])
    assert E3.distance(p, q) == pytest.approx(5.0, rel=1e-15)


def test_hyperbolic_distance_frozen():
    # points on the x1 axis: distance is the parameter difference
    p = np.array([np.cosh(0.5), np.sinh(0.5), 0.0, 0.0])
    q = np.array([np.cosh(2.5), np.sinh(2.5), 0.0, 0.0])
    assert H3.distance(p, q) == pytest.approx(2.0, rel=1e-13)


def test_distance_small_separation_floor():
    # the Minkowski inner product fixes the accuracy floor: its absolute
    # error ~eps_mach turns into ~sqrt(eps_mach) of distance error, so
    # separations resolve to ~5e-8 but no further; the stable acosh keeps
    # the series itself from adding loss on top of that
    p = hyp_point(0.3, -0.2, 0.1)
    v = np.array([0.0, 1.0, 0.0, 0.0])
    w = v + H3.inner(p, v) * p  # Minkowski projection onto the tangent space
    w /= np.sqrt(H3.inner(w, w))
    for eps in [1e-2, 1e-3, 1e-5, 1e-7, 1e-9]:
        q = geodesic_step(H3, p, w, eps)
        d = H3.distance(p, q)
        assert abs(d - eps) < 6e-8, eps
        if eps >= 1e-2:
            assert d == pytest.approx(eps, rel=1e-9)


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(5)
    pts = [hyp_point(*rng.uniform(-2, 2, 3)) for _ in range(30)]
    for i in range(len(pts) - 2):
        p, q, s = pts[i], pts[i + 1], pts[i + 2]
        dpq = H3.distance(p, q)
        assert dpq == pytest.approx(H3.distance(q, p), rel=1e-13)
        assert dpq <= H3.distance(p, s) + H3.distance(s, q) + 1e-12


def test_check_point_validates_sheet_and_dim():
    p = hyp_point(1.0, 0.0, 0.0)
    H3.check_point(p)
    with pytest.raises(Exception):
        H3.check_point(-p)  # lower sheet
    with pytest.raises(Exception):
        H3.check_point(np.array([1.0, 0.0, 0.0]))  # wrong dimension
    off = p.copy()
    off[1] += 1e-3
    with pytest.raises(Exception):
        H3.check_point(off)


def test_radial_unit_is_unit_tangent():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = hyp_point(*rng.uniform(-1.5, 1.5, 3))
        q = hyp_point(*rng.uniform(-1.5, 1.5, 3))
        if H3.distance(p, q) < 1e-6:
            continue
        u = H3.radial_split(p, q)[1]
        assert H3.inner(u, u) == pytest.approx(1.0, abs=1e-10)
        assert H3.inner(u, q) == pytest.approx(0.0, abs=1e-9)


def test_radial_unit_euclidean():
    p = np.zeros(3)
    q = np.array([3.0, 4.0, 0.0])
    assert np.allclose(E3.radial_split(p, q)[1], [0.6, 0.8, 0.0], atol=1e-15)
    with pytest.raises(PoleSingularity):
        E3.radial_split(p, p + 1e-14)


def test_geodesic_step_hits_target_distance():
    rng = np.random.default_rng(9)
    for form in (E3, H3):
        for _ in range(50):
            if form.curved:
                p = hyp_point(*rng.uniform(-1, 1, 3))
                v = rng.standard_normal(4)
                v = v + form.inner(p, v) * p
            else:
                p = rng.standard_normal(3)
                v = rng.standard_normal(3)
            v = v / np.sqrt(form.inner(v, v))
            s = float(np.exp(rng.uniform(-3, 1)))
            q = geodesic_step(form, p, v, s)
            assert form.distance(p, q) == pytest.approx(s, rel=1e-11)
            if form.curved:
                assert form.point_residual(q) < 1e-12


def test_geodesic_step_reaches_radial_target():
    # radial_split(q, p)[1] is the tangent at p pointing away from q, so
    # stepping from p along its negation by d(p, q) lands on q
    rng = np.random.default_rng(21)
    for _ in range(30):
        p = hyp_point(*rng.uniform(-1, 1, 3))
        q = hyp_point(*rng.uniform(-1, 1, 3))
        d = H3.distance(p, q)
        if d < 1e-5:
            continue
        q2 = geodesic_step(H3, p, -H3.radial_split(q, p)[1], d)
        assert np.allclose(q2, q, atol=1e-10 * (1 + np.abs(q).max()))


@pytest.mark.parametrize("form", [E3, H3], ids=["E3", "H3"])
def test_normal_seed_is_orthogonal_to_point_and_plane(form):
    rng = np.random.default_rng(12)
    x, a, c = rng.standard_normal((3, 50, form.dim)).transpose(0, 2, 1)
    X = form.normal_seed(x, a, c)
    for y in ((a, c) if not form.curved else (x, a, c)):
        scale = np.linalg.norm(X, axis=0) * np.linalg.norm(y, axis=0)
        assert np.all(np.abs(form.inner(X, y)) <= 1e-14 * scale)
    assert np.all(np.linalg.norm(X, axis=0) > 0.0)


def _point_first(x):
    """A C-contiguous (N, dim) copy of component-first points."""
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def _normal_seed_point_first(form, x, a, c):
    """`normal_seed` on (N, dim) arrays through `np.cross` and `einsum`."""
    if not form.curved:
        return np.cross(a, c)
    xs, as_, cs = x[:, 1:], a[:, 1:], c[:, 1:]
    ac = np.cross(as_, cs)
    rest = (x[:, :1] * ac + a[:, :1] * np.cross(cs, xs)
            + c[:, :1] * np.cross(xs, as_))
    head = np.einsum("...k,...k->...", xs, ac)[:, None]
    return np.concatenate([head, rest], axis=1)


@pytest.mark.parametrize("form", [E3, H3], ids=["E3", "H3"])
def test_coordinate_sums_equal_point_first_numpy_bitwise(form):
    # The sums over the leading coordinate axis are written out in the
    # grouping NumPy's reductions use on a trailing axis.  An einsum or a
    # sum over the leading axis groups them otherwise and rounds about a
    # third of the inner products differently.
    rng = np.random.default_rng(19)
    n = 100_000
    a, c = rng.standard_normal((2, form.dim, n))
    x = rng.uniform(-3.0, 3.0, (form.dim, n))
    if form.curved:
        x[0] = np.sqrt(1.0 + x[1] ** 2 + x[2] ** 2 + x[3] ** 2)
    pole = x[:, 0].copy()
    X, A, C = _point_first(x), _point_first(a), _point_first(c)

    def inner(p, q):
        s = np.einsum("...k,...k->...", p, q)
        return s - 2.0 * p[..., 0] * q[..., 0] if form.curved else s

    assert np.array_equal(form.inner(a, c), inner(A, C))
    assert np.array_equal(form.inner(pole, x), inner(pole, X))
    assert np.array_equal(form.normal_seed(x, a, c),
                          _normal_seed_point_first(form, X, A, C).T)
    if not form.curved:
        assert np.array_equal(form.distance(pole, x),
                              np.linalg.norm(X - pole, axis=-1))
