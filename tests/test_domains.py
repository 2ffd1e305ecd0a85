"""Tests for distance fields, ball extraction, and quadrature.

Closed-form targets: the plane disk (area pi t^2, length 2 pi t), the
geodesic disk of the totally geodesic H^2 (area 2 pi (cosh t - 1), length
2 pi sinh t), and the Euclidean chord ball on the unit sphere, which is a
cap of height t^2 / 2 with area pi t^2 and boundary circle of intrinsic
radius 2 asin(t / 2).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extballs import immersion
from extballs.catalog.charts import plane_chart, sphere_cap_chart
from extballs.domains import (GridSpec, bisect_boundary, build_field,
                              coarea_integral, critical_scan, extract_ball,
                              level_components, project_to_level,
                              region_integral)
from extballs.domains import balls, contours, quadrature
from extballs.domains import field as field_module
from extballs.domains.field import bracketed_newton, cut_cells, level_cells
from extballs.domains.quadrature import ensure_cell_cache
from extballs.errors import (ConfigError, DomainTooSmall, GeometryError,
                             PoleOffModel)
from extballs.immersion import BATCH_POINTS, frames, radial_frames
from oracles import cell_cases, corner_views, make


def _level(field, t):
    """The `contours.Level` that extract_ball solves for the level t."""
    return contours.solve_level(field, t, level_cells(field, t))


@pytest.fixture(scope="module")
def plane_field():
    return build_field(make("plane", t_max=8.0), 8.0)


@pytest.fixture(scope="module")
def catenoid_field():
    return build_field(make("catenoid", t_max=8.0), 8.0)


@pytest.fixture(scope="module")
def h2_field():
    return build_field(make("h2_in_h3", t_max=8.0), 8.0)


@pytest.fixture(scope="module")
def catenoid_192():
    return build_field(make("catenoid", t_max=4.0), 4.0,
                       spec=GridSpec(192, 192))


def test_grid_spec_minimum():
    with pytest.raises(ConfigError):
        GridSpec(n_u=32)


def test_domain_too_small_guard():
    with pytest.raises(DomainTooSmall):
        build_field(plane_chart(halfwidth=2.0), 8.0)


def test_pole_off_model():
    surf = make("h2_in_h3", t_max=4.0)
    with pytest.raises(PoleOffModel):
        build_field(surf, 4.0, pole=np.array([1.0, 0.0, 0.0, 0.5]))


def test_bad_t_max():
    with pytest.raises(ConfigError):
        build_field(plane_chart(), -1.0)


@pytest.mark.parametrize("name", ["catenoid", "enneper"])
def test_field_blocks_equal_one_batch(name, monkeypatch):
    # Seven u-rows per block leave a ragged last block of five rows; r
    # matches one whole-grid batch of radial_frames bit for bit, on a
    # u-periodic chart (catenoid) and a non-periodic one (Enneper).  One
    # worker, so the spy sees every block.
    surface = make(name, t_max=3.0)
    spec = GridSpec(96, 80)
    blocks = []

    def jet(U, V, order):
        if np.ndim(U) == 2:                 # a block, not the pole
            blocks.append((U.shape[0], order))
        return surface.jet(U, V, order)

    monkeypatch.setattr(immersion, "_WORKERS", 1)
    monkeypatch.setattr(field_module, "BATCH_POINTS", 7 * 80 + 3)
    field = build_field(dataclasses.replace(surface, jet=jet), 3.0,
                        spec=spec)
    # Positions only: one order-0 jet per block.
    assert blocks == [(7, 0)] * 13 + [(5, 0)]
    U, V = np.meshgrid(field.u_nodes, field.v_nodes, indexing="ij")
    whole = radial_frames(surface, U, V, pole=field.pole)
    assert np.array_equal(field.r, whole.r)


def _peak_mb(call):
    """Result and tracemalloc peak (MB) of one call, from a fresh start."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# Traced peaks on the 512^2 catenoid: build_field 10.8 MB against 60.8 MB
# for one whole-grid batch; ensure_cell_cache 6.6 MB, against 20.9 MB
# with per-cell index arrays and 8.7 MB with a periodic copy of r and
# pairwise minima for the reach mask.
def test_field_and_cache_traced_peaks():
    surface = make("catenoid", t_max=8.0)
    field, field_mb = _peak_mb(
        lambda: build_field(surface, 8.0, spec=GridSpec(512, 512)))
    _, cache_mb = _peak_mb(lambda: ensure_cell_cache(field))
    assert field_mb < 32.0
    assert cache_mb < 14.0


# The cache on Enneper at catalog defaults (512^2, 152,861 cached cells)
# rises by 8.5 MB: 6.3 MB of results, the reach mask and one batch of
# frames over 19,297 octant cells.  Integrating every cached cell in
# batches of 16,384 cells rose by 67.0 MB.
def test_dihedral_cache_traced_peak():
    field = build_field(make("enneper"), 8.0, spec=GridSpec(512, 512))
    _, cache_mb = _peak_mb(lambda: ensure_cell_cache(field))
    assert cache_mb < 16.0


def test_plane_disk_closed_forms(plane_field):
    ball = extract_ball(plane_field, 1.0)
    assert ball.n_components == 1
    assert abs(ball.area - np.pi) / np.pi < 1e-6
    assert abs(ball.boundary_length - 2 * np.pi) / (2 * np.pi) < 1e-6
    assert len(ball.samples) >= 200
    # The quadrature itself is far sharper than the contract asks.
    assert abs(ball.area - np.pi) / np.pi < 1e-9


def test_plane_coarea(plane_field):
    ball = extract_ball(plane_field, 2.0)
    co = coarea_integral(ball)
    assert abs(co - 4 * np.pi) / (4 * np.pi) < 1e-6


def test_plane_curvature_channels(plane_field):
    out = region_integral(plane_field, 3.0, _level(plane_field, 3.0))
    assert abs(out["one"] - 9 * np.pi) / (9 * np.pi) < 1e-9
    assert abs(out["normBsq"]) < 1e-10
    assert abs(out["K"]) < 1e-10


def test_h2_disk_closed_forms(h2_field):
    ball = extract_ball(h2_field, 1.0)
    area = 2 * np.pi * (np.cosh(1.0) - 1.0)
    length = 2 * np.pi * np.sinh(1.0)
    assert abs(ball.area - area) / area < 1e-6
    assert abs(ball.boundary_length - length) / length < 1e-6
    # Gauss curvature -1: the K channel integrates to minus the area.
    assert abs(ball.integrals["K"] + ball.area) / area < 1e-8


def test_h2_large_disk(h2_field):
    ball = extract_ball(h2_field, 8.0)
    area = 2 * np.pi * (np.cosh(8.0) - 1.0)
    length = 2 * np.pi * np.sinh(8.0)
    assert abs(ball.area - area) / area < 1e-8
    assert abs(ball.boundary_length - length) / length < 1e-7


def test_sphere_chord_ball():
    field = build_field(make("sphere_control", t_max=1.5), 1.5)
    ball = extract_ball(field, 1.0)
    # Chord ball {|x - p| < t} on the unit sphere: cap of height t^2 / 2.
    assert abs(ball.area - np.pi) / np.pi < 1e-9
    length = 2 * np.pi * np.sin(2 * np.arcsin(0.5))
    assert abs(ball.boundary_length - length) / length < 1e-9
    # K = 1 everywhere, so the K channel reproduces the area.
    assert abs(ball.integrals["K"] - ball.area) < 1e-9


def test_catenoid_two_ends(catenoid_field):
    ball = extract_ball(catenoid_field, 5.0)
    assert ball.n_components == 2
    # Each end circles the neck: its vertices leave no wide gap in u.
    level = _level(catenoid_field, 5.0)
    n_comp, label = level_components(level)
    assert n_comp == 2
    for comp in range(n_comp):
        u = np.sort(level.pos[label == comp, 0])
        gaps = np.diff(np.concatenate([u, u[:1] + 2 * np.pi]))
        assert np.max(gaps) < 0.1


def test_partial_bisection_on_two_ends():
    # Around the off-neck pole (0, 1) the catenoid's level t = 4 has ends
    # of 160 and 156 crossings: with n_min = 158 only the smaller end is
    # bisected, once, and the set comes back grouped by component.
    surface = make("catenoid", t_max=6.0)
    pole = surface.eval(np.array([0.0]), np.array([1.0]))[:, 0]
    field = build_field(surface, 6.0, pole=pole, spec=GridSpec(128, 128))
    tt = 4.0 + balls._LEVEL_NUDGE * 5.0
    level = _level(field, tt)
    n_comp, label = level_components(level)
    sizes = np.bincount(label)
    assert n_comp == 2 and sorted(sizes.tolist()) == [156, 160]
    big, small = int(np.argmax(sizes)), int(np.argmin(sizes))

    uv, segments = bisect_boundary(field, tt, level.pos, level.segments,
                                   label, 158)
    # Grouped by component in label order, each opening with its
    # crossings in edge order; the larger end keeps exactly those.
    comp = np.repeat([0, 1], np.where(sizes < 158, 2 * sizes, sizes))
    assert len(uv) == len(segments) == 160 + 2 * 156
    assert np.array_equal(uv[comp == big], level.pos[label == big])
    ends = uv[comp == small]
    assert np.array_equal(ends[:156], level.pos[label == small])
    assert np.array_equal(np.bincount(segments.ravel(), minlength=len(uv)),
                          np.full(len(uv), 2))
    seg_comp = comp[segments]
    assert np.array_equal(seg_comp[:, 0], seg_comp[:, 1])
    assert np.all(np.diff(seg_comp[:, 0]) >= 0)
    mids = ends[156:]
    r = field.eval_r(mids[:, 0], mids[:, 1])
    assert np.max(np.abs(r - tt)) < 1e-12


def test_one_classification_per_radius(catenoid_192, monkeypatch):
    # extract_ball classifies the cells of the field's sorted band once
    # and shares them between the contours and the quadrature; the band's
    # cut cells are those of the whole-grid reference classification.
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return cut_cells(*args, **kwargs)

    monkeypatch.setattr(field_module, "cut_cells", spy)
    ball = extract_ball(catenoid_192, 3.0)
    assert len(calls) == 1
    assert len(calls[0][3]) < catenoid_192.r.size // 10

    monkeypatch.undo()
    tt = 3.0 + balls._LEVEL_NUDGE * 4.0
    cases = cell_cases(catenoid_192.r, tt, catenoid_192.periodic_u)
    ci, cj = np.nonzero((cases > 0) & (cases < 15))
    cells = level_cells(catenoid_192, tt)
    assert np.array_equal(cells.ids, ci * (catenoid_192.spec.n_v - 1) + cj)
    assert np.array_equal(cells.case, cases[ci, cj])
    assert ball.n_components == 2


def test_each_cut_edge_is_solved_once(catenoid_192, monkeypatch):
    # One Newton solve per cut edge, shared by the contours and the
    # slicer: every bracketed_newton call on whole edges (bracket [0, 1])
    # together holds each cut edge exactly once.  The strip solves of the
    # slicer, which bracket half strips, are not edge solves.
    t = 3.0
    level = _level(catenoid_192, t + balls._LEVEL_NUDGE * (1.0 + t))
    calls = []

    def spy(field, tt, base_u, base_v, du, dv, lo, hi, *args, **kwargs):
        if np.ndim(lo) == 0 and (lo, hi) == (0.0, 1.0):
            U, V, dU, dV = np.broadcast_arrays(base_u, base_v, du, dv)
            calls.append(np.stack([U, V, dU, dV], axis=-1).reshape(-1, 4))
        return bracketed_newton(field, tt, base_u, base_v, du, dv, lo, hi,
                                *args, **kwargs)

    rejected = []
    slice_cells = quadrature._slice_cells

    def slice_spy(*args):
        contrib, ok = slice_cells(*args)
        rejected.append(int(np.count_nonzero(~ok)))
        return contrib, ok

    for module in (contours, quadrature):
        monkeypatch.setattr(module, "bracketed_newton", spy)
    monkeypatch.setattr(quadrature, "_slice_cells", slice_spy)
    extract_ball(catenoid_192, t)
    assert rejected == [0]
    solved = np.concatenate(calls)
    assert len(solved) == len(level.edges) > 0
    assert len(np.unique(solved, axis=0)) == len(solved)


def test_enneper_single_end():
    field = build_field(make("enneper", t_max=6.0), 6.0)
    assert extract_ball(field, 5.0).n_components == 1


def test_catenoid_coarea_consistency(catenoid_field):
    ball = extract_ball(catenoid_field, 3.0)
    co = coarea_integral(ball)
    d = 1e-3
    dA = (extract_ball(catenoid_field, 3.0 + d).area
          - extract_ball(catenoid_field, 3.0 - d).area) / (2 * d)
    assert abs(co - dA) / abs(dA) < 1e-3


def test_catenoid_area_monotone(catenoid_field):
    areas = [extract_ball(catenoid_field, t).area
             for t in (1.0, 2.5, 4.0, 6.0, 8.0)]
    assert all(b > a for a, b in zip(areas, areas[1:]))


def test_catenoid_ends_stable_beyond_r0(catenoid_field):
    scan = critical_scan(catenoid_field, 0.1, 8.0)
    counts = {extract_ball(catenoid_field, t).n_components
              for t in np.linspace(scan["R0"] + 0.3, 8.0, 6)}
    assert counts == {2}


def test_catenoid_critical_scan(catenoid_field):
    scan = critical_scan(catenoid_field, 0.1, 8.0)
    # The antipodal waist point is a saddle of r at straight-line
    # distance 2 from the pole (1, 0, 0).
    assert any(abs(v - 2.0) < 0.01 for v in scan["critical_values"])
    assert 1.9 < scan["R0"] < 2.3
    clean = critical_scan(catenoid_field, 3.0, 8.0)
    assert clean["critical_values"] == []


def test_plane_critical_scan(plane_field):
    scan = critical_scan(plane_field, 0.5, 8.0)
    assert scan["critical_values"] == []
    assert scan["R0"] == 0.5


@pytest.mark.parametrize("n", [128, 256])
def test_catenoid_saddle_is_exact(n):
    # The waist point opposite the pole (1, 0, 0) is the only critical
    # point of r past the pole, at distance 2.  Neither grid has a node
    # there, and its two nearest nodes tie in r: without the row-major
    # tie-break neither is a saddle of the triangulated r, and without
    # Newton the value stays a node's r (2.000124 at 256^2).
    field = build_field(make("catenoid", t_max=4.0), 4.0,
                        spec=GridSpec(n, n))
    scan = critical_scan(field, 1.0, 4.0)
    assert len(scan["critical_values"]) == 1
    assert abs(scan["critical_values"][0] - 2.0) < 1e-12
    assert scan["R0"] == scan["critical_values"][0]


def test_hyperbolic_neck_saddle_agrees_across_grids():
    # The hyperbolic catenoid's one saddle past the pole, refined from
    # each grid's critical node, is the same point of the smooth surface.
    values = []
    for n in (256, 384, 512):
        field = build_field(make("hyperbolic_catenoid", t_max=3.0), 3.0,
                            spec=GridSpec(n, n))
        scan = critical_scan(field, 0.5, 3.0)
        assert len(scan["critical_values"]) == 1
        values.append(scan["R0"])
    assert 1.40 < values[0] < 1.50
    assert np.ptp(values) < 1e-9


def test_boundary_sample_invariants(catenoid_field):
    ball = extract_ball(catenoid_field, 4.0)
    s = ball.samples
    fb = s.frame
    nu = fb.gradPr / fb.normGradPr[:, None]
    assert np.all(np.abs(fb.metric_dot(s.e, nu)) < 1e-9)
    assert np.all(np.abs(fb.metric_dot(s.e, s.e) - 1.0) < 1e-9)
    assert np.all(np.abs(fb.metric_dot(nu, nu) - 1.0) < 1e-9)
    assert np.all(np.abs(fb.r - 4.0) < 1e-8)
    assert np.all(s.weight > 0.0)
    assert s.uv.shape == (len(s), 2)


def test_open_level_curve_raises(plane_field):
    # A level just above the chart edge's midpoint distance leaves the
    # grid, so its edge crossings cannot all pair into closed components.
    # That level lies beyond t_max, outside the sorted band of reached
    # cells, so its cut cells come from every cell of the grid.
    t = float(plane_field.r[0, 256]) + 1e-3
    m_u, m_v = plane_field.cell_shape
    cells = cut_cells(plane_field.r, t, plane_field.periodic_u,
                      np.arange(m_u * m_v))
    with pytest.raises(GeometryError, match="not closed inside the grid"):
        level_components(contours.solve_level(plane_field, t, cells))


def _scipy_labels(n, pairs):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    return connected_components(
        coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                   shape=(n, n)), directed=False)


def _assert_labels_match_scipy(n, pairs):
    n_comp, label = contours.component_labels(n, pairs)
    ref_n, ref_label = _scipy_labels(n, pairs)
    assert n_comp == ref_n
    assert np.array_equal(label, ref_label)


def test_component_labels_match_scipy_on_levels():
    # The catenoid's two ends at t = 3, and a hyperbolic catenoid ball
    # around its pole on the u seam, whose one component crosses the seam.
    catenoid = build_field(make("catenoid", t_max=4.0), 4.0,
                           spec=GridSpec(128, 128))
    hyperbolic = build_field(make("hyperbolic_catenoid", t_max=3.0), 3.0,
                             spec=GridSpec(128, 128))
    for field, t, n_comp in ((catenoid, 3.0, 2), (hyperbolic, 0.5, 1)):
        level = _level(field, t)
        _assert_labels_match_scipy(len(level.edges), level.segments)
        assert level_components(level)[0] == n_comp
    u = level.pos[:, 0]
    assert u.min() < 0.5 and u.max() > 2.0 * np.pi - 0.5


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 40), min_size=1, max_size=8),
       st.randoms(use_true_random=False))
def test_component_labels_match_scipy_on_cycles(lengths, rnd):
    # Disjoint cycles (a 1-cycle is a self-loop, a 2-cycle a doubled
    # edge) on shuffled node ids, with the edges in shuffled order and
    # direction.
    nodes = list(range(sum(lengths)))
    rnd.shuffle(nodes)
    pairs, start = [], 0
    for length in lengths:
        ring = nodes[start:start + length]
        start += length
        pairs += [(ring[k], ring[(k + 1) % length]) if rnd.random() < 0.5
                  else (ring[(k + 1) % length], ring[k])
                  for k in range(length)]
    rnd.shuffle(pairs)
    _assert_labels_match_scipy(len(nodes), np.array(pairs))


def test_project_to_level(plane_field):
    rng = np.random.default_rng(11)
    ang = rng.uniform(0.0, 2 * np.pi, 40)
    pts = np.stack([2.03 * np.cos(ang), 1.97 * np.sin(ang)], axis=-1)
    out = project_to_level(plane_field, 2.0, pts)
    r = np.hypot(out[:, 0], out[:, 1])
    assert np.max(np.abs(r - 2.0)) < 1e-12


def test_bracketed_newton_on_a_chord(plane_field):
    # r(1 + s, 1 - s) = sqrt(2 + 2 s^2) meets 1.5 at s = sqrt(1/8); the
    # secant start at s = 0.146 lies well short of it.
    one = np.array([1.0])
    s, frozen = bracketed_newton(plane_field, 1.5, one, one, 1.0, -1.0, 0.0,
                                 1.0, np.sqrt(2.0) * one - 1.5, 0.5 * one,
                                 iters=8, tol=1e-13)
    assert abs(s[0] - np.sqrt(0.125)) < 1e-12
    assert frozen.tolist() == [True]


def test_empty_ball_off_surface_pole():
    # Pole off the sphere cap, farther than t from every grid node: the
    # discrete ball would have no boundary, so extraction refuses it.
    field = build_field(sphere_cap_chart(), 0.5,
                        pole=np.array([0.0, 0.0, 2.0]))
    nearest = float(np.min(field.r))
    assert nearest > 1.0
    with pytest.raises(ConfigError) as exc:
        extract_ball(field, 0.5)
    msg = str(exc.value)
    assert "t = 0.5" in msg and f"r = {nearest:.6g}" in msg
    assert "refine the grid or raise t_min" in msg


def test_radius_bounds(plane_field):
    with pytest.raises(ConfigError):
        extract_ball(plane_field, 9.0)
    with pytest.raises(ConfigError):
        extract_ball(plane_field, 0.0)
    with pytest.raises(ConfigError):
        extract_ball(plane_field, -1.0)


def test_samples_augmented_to_minimum(catenoid_field, monkeypatch):
    monkeypatch.setattr(balls, "MIN_SAMPLES", 600)
    ball = extract_ball(catenoid_field, 5.0)
    assert len(ball.samples) >= 600
    assert abs(np.sum(ball.samples.weight)
               - ball.boundary_length) < 1e-9 * ball.boundary_length


def _cached_cells(field):
    """(ci, cj) of the cells with a corner below t_max: the cached ones."""
    c0, c1, c2, c3 = corner_views(field.r, field.periodic_u)
    corner_min = np.minimum(np.minimum(c0, c1), np.minimum(c2, c3))
    return np.nonzero(corner_min < field.t_max)


def _gl6_cell_totals(field):
    """Reference for the full-cell cache: GL6x6 over the same cells.

    Each channel's density (1, |B|^2, K, each times sqrt(det g)) is
    summed one u node of the rule at a time to keep the frame batches
    small.
    """
    x, w = np.polynomial.legendre.leggauss(6)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    ci, cj = _cached_cells(field)
    V = field.v_nodes[cj][:, None] + field.h_v * x[None, :]
    totals = np.zeros(3)
    for xa, wa in zip(x, w):
        U = np.broadcast_to(field.u_nodes[ci][:, None] + field.h_u * xa,
                            V.shape)
        fb = frames(field.surface, U, V)
        area = np.sqrt(fb.detg)
        for k, dens in enumerate((area, fb.normBsq * area, fb.K * area)):
            totals[k] += wa * field.h_u * field.h_v * float(np.sum(dens @ w))
    return totals


# Largest relative error of any channel's cache total against GL6x6 at
# 128^2 and t_max = 8: 1.5e-12 on the catenoid, 2.0e-9 (the |B|^2
# channel) on the hyperbolic catenoid, 2.8e-16 on the plane, 3.3e-12 on
# the helicoid, 3.6e-15 on Enneper and 7.7e-12 on h2_in_h3, whose cache
# integrates a column at u = 0 while the reference sums every column,
# where cosh u factors of up to e^8.8 carry correlated roundoff.  The
# sphere control, at its catalog t_max of 1.5, reads 3.7e-16.  GL2x2
# in the cache would be off by 4.8e-8 and 2.6e-7 on the two catenoids.
# A channel that is zero in the reference (|B|^2 and K on the plane,
# |B|^2 on h2_in_h3) must read zero to the bound absolutely.
@pytest.mark.parametrize("name, bound", [("catenoid", 2e-11),
                                         ("hyperbolic_catenoid", 2e-8),
                                         ("plane", 1e-14),
                                         ("helicoid", 2e-11),
                                         ("h2_in_h3", 5e-11),
                                         ("enneper", 1e-13),
                                         ("sphere_control", 5e-15)])
def test_cell_cache_matches_gl6_reference(name, bound):
    t_max = 1.5 if name == "sphere_control" else 8.0
    field = build_field(make(name, t_max=t_max), t_max,
                        spec=GridSpec(128, 128))
    cache = ensure_cell_cache(field)
    assert list(cache) == ["one", "normBsq", "K"]
    got = np.array([float(np.sum(cells)) for cells in cache.values()])
    ref = _gl6_cell_totals(field)
    rel = np.abs(got - ref) / np.where(ref != 0.0, np.abs(ref), 1.0)
    assert np.all(rel < bound), (rel, ref)


def test_cell_cache_h2_matches_exact_rows():
    # On the totally geodesic H^2 the area density is cosh v, so a whole
    # cell of row j integrates to h_u (sinh v_j+1 - sinh v_j) exactly,
    # and K = -1 makes the K total minus the area.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    field = build_field(make("h2_in_h3", t_max=8.0), 8.0,
                        spec=GridSpec(128, 128))
    cache = ensure_cell_cache(field)
    _, cj = _cached_cells(field)
    counts = np.bincount(cj)
    hu, hv = mpmath.mpf(field.h_u), mpmath.mpf(field.h_v)
    exact = mpmath.fsum(
        int(counts[j]) * hu * (mpmath.sinh(mpmath.mpf(field.v_nodes[j]) + hv)
                               - mpmath.sinh(mpmath.mpf(field.v_nodes[j])))
        for j in np.unique(cj))
    one = float(np.sum(cache["one"]))
    assert abs(one - float(exact)) <= 1e-11 * float(exact)
    assert abs(float(np.sum(cache["K"])) + one) <= 1e-12 * one
    assert float(np.sum(cache["normBsq"])) == 0.0


def _dihedral_orbits(field, ci, cj):
    """Orbits of cells (ci, cj) under u -> -u, v -> -v and, on a square
    grid over a square domain, u <-> v: the cells a dihedral cache needs."""
    m_u, m_v = field.spec.n_u - 1, field.spec.n_v - 1
    fi = np.minimum(ci, m_u - 1 - ci)
    fj = np.minimum(cj, m_v - 1 - cj)
    (_, u1), (_, v1) = field.surface.domain
    if m_u == m_v and u1 == v1:
        fi, fj = np.minimum(fi, fj), np.maximum(fi, fj)
    return len(set(zip(fi.tolist(), fj.tolist())))


def _frame_spy(monkeypatch):
    """Record the point count of every `frames` call of the quadrature."""
    points = []

    def spy(surface, U, V, *args):
        points.append(np.size(U))
        return frames(surface, U, V, *args)

    monkeypatch.setattr(quadrature, "frames", spy)
    return points


@pytest.mark.parametrize("name, column", [("catenoid", True),
                                          ("h2_in_h3", True),
                                          ("enneper", False),
                                          ("sphere_control", False)])
def test_cell_cache_frame_points(name, column, monkeypatch):
    # A "u_shift" chart evaluates one GL3x3 cell per cached row; a
    # "dihedral" chart one cell per orbit of its mirror and swap maps
    # that meets the cache, at least 4x fewer than the cached cells.
    t_max = 1.5 if name == "sphere_control" else 4.0
    field = build_field(make(name, t_max=t_max), t_max,
                        spec=GridSpec(96, 96))
    points = _frame_spy(monkeypatch)
    cache = ensure_cell_cache(field)
    ci, cj = _cached_cells(field)
    rows, row_of = np.unique(cj, return_inverse=True)
    assert field.surface.symmetry == ("u_shift" if column else "dihedral")
    if column:
        assert sum(points) == 9 * len(rows)
    else:
        orbits = _dihedral_orbits(field, ci, cj)
        assert sum(points) == 9 * orbits
        assert 4 * orbits <= len(ci)
    assert len(rows) < len(cj)
    # The sorted cells are the cached cells of the reference reach mask.
    row_major = np.argsort(field.cell_order, kind="stable")
    assert np.array_equal(field.cell_order[row_major],
                          ci * (field.spec.n_v - 1) + cj)
    if column:
        # The cache equals scattering the column's integrals through
        # per-cell index arrays, bit for bit.
        part = quadrature._full_cells(field, np.zeros(len(rows)),
                                      field.v_nodes[rows], field.h_u,
                                      field.h_v)
        for name, values in zip(quadrature.CHANNELS, part):
            scattered = np.zeros(cache[name].shape)
            scattered[row_major] = values[row_of]
            assert np.array_equal(cache[name], scattered), name


# Grid (n_u, n_v), pole in chart coordinates (None: the origin) and the
# fraction of the chart's half-width kept in v.  "odd" has 95 cell columns
# (a middle one on the mirror line), "even" 96 (a middle node sits on the
# origin, so the pole moves just off it), "quadrant" a non-square grid,
# "adjacent" cell counts 95 and 96 (equal quadrants, unequal spacings)
# and "narrow" a non-square domain (no u <-> v map, so one quadrant
# each); "off_centre" has a reach mask that no mirror map preserves.
# "u_shift" is the 96^2 grid of the u_shift charts.
_FOLD_CASES = {
    "odd": ((96, 96), None, 1.0),
    "even": ((97, 97), (0.02, 0.01), 1.0),
    "quadrant": ((96, 80), None, 1.0),
    "adjacent": ((96, 97), None, 1.0),
    "narrow": ((96, 96), None, 0.9),
    "off_centre": ((96, 96), (0.3, -0.2), 1.0),
    "u_shift": ((96, 96), None, 1.0),
}


@pytest.mark.parametrize("name, case", [
    *((name, case) for name in ("enneper", "sphere_control")
      for case in sorted(_FOLD_CASES) if case != "u_shift"),
    *((name, "u_shift") for name in ("plane", "catenoid", "helicoid",
                                     "h2_in_h3", "hyperbolic_catenoid")),
])
def test_dihedral_cache_matches_per_cell(name, case, monkeypatch):
    # The cache read through every fold (the octant images of a
    # "dihedral" chart, the u = 0 row cells of a "u_shift" one) equals,
    # cell by cell, the per-cell path of the same chart declaring no
    # symmetry, within 1e-14 of each cell's area in R^3 and 1e-12 in H^3.
    (n_u, n_v), pole_uv, narrow = _FOLD_CASES[case]
    t_chart = 1.5 if name == "sphere_control" else 4.0
    surface = make(name, t_max=t_chart)
    u_range, (v0, v1) = surface.domain
    surface = dataclasses.replace(
        surface, domain=(u_range, (narrow * v0, narrow * v1)))
    pole = None if pole_uv is None else surface.eval(*pole_uv)
    field = build_field(surface, 0.7 * t_chart, pole=pole,
                        spec=GridSpec(n_u, n_v))
    points = _frame_spy(monkeypatch)
    cache = ensure_cell_cache(field)
    ci, cj = _cached_cells(field)
    dihedral = surface.symmetry == "dihedral"
    folded = (_dihedral_orbits(field, ci, cj) if dihedral
              else len(np.unique(cj)))
    assert sum(points) == 9 * folded
    assert max(points) <= BATCH_POINTS

    plain = dataclasses.replace(
        field, surface=dataclasses.replace(surface, symmetry=None),
        cell_integrals=None)
    ref = ensure_cell_cache(plain)
    bound = 1e-12 if surface.form.curved else 1e-14
    for channel in quadrature.CHANNELS:
        got, want = cache[channel], ref[channel]
        assert np.array_equal(got != 0.0, want != 0.0), channel
        err = np.max(np.abs(got - want) / ref["one"])
        assert err <= bound, (channel, err)
        if dihedral:
            rel = np.abs(got - want) / np.where(want != 0.0, np.abs(want),
                                                1.0)
            assert np.max(rel) <= 1e-13, (channel, np.max(rel))


@pytest.mark.parametrize("symmetry", ["dihedral", None])
def test_cell_cache_batches(symmetry, monkeypatch):
    # Every quadrature batch of the cache holds BATCH_POINTS // 9 whole
    # cells, the last one the rest, in one frames call; the batches
    # change no cell beyond roundoff.  One worker, so the spy sees every
    # batch.
    surface = dataclasses.replace(make("enneper", t_max=4.0),
                                  symmetry=symmetry)
    field = build_field(surface, 4.0, spec=GridSpec(96, 96))
    whole = ensure_cell_cache(field)
    field.cell_integrals = None
    monkeypatch.setattr(immersion, "_WORKERS", 1)
    monkeypatch.setattr(quadrature, "BATCH_POINTS", 9 * 100 + 5)
    points = _frame_spy(monkeypatch)
    cache = ensure_cell_cache(field)
    assert len(points) > 2
    assert points[:-1] == [900] * (len(points) - 1)
    assert 0 < points[-1] <= 900
    for channel in quadrature.CHANNELS:
        scale = np.max(np.abs(whole[channel]))
        assert np.max(np.abs(cache[channel] - whole[channel])) <= (
            1e-15 * scale), channel


# Cached cell count and per-channel cache sums (one, |B|^2, K) at 96^2
# with t_max 4: a periodic and a non-periodic "u_shift" chart, Enneper
# through its octant fold, and Enneper cell by cell (symmetry None, a
# path no catalog chart takes).  Any change to which cells the cache
# evaluates, or how it maps them back, must leave these bits alone.
_CACHE_PINS = {
    ("catenoid", "u_shift"): (5400, (
        "0x1.6dd2274f44f30p+6", "0x1.80750dc23f375p+4",
        "-0x1.80750dc23f375p+3")),
    ("h2_in_h3", "u_shift"): (5005, (
        "0x1.63a15cb36a5b8p+7", "0x0.0p+0", "-0x1.63a15cb36a5b8p+7")),
    ("enneper", "dihedral"): (5281, (
        "0x1.d421ed433c822p+6", "0x1.3ea5c2b631993p+4",
        "-0x1.3ea5c2b631993p+3")),
    ("enneper", None): (5281, (
        "0x1.d421ed433c822p+6", "0x1.3ea5c2b631993p+4",
        "-0x1.3ea5c2b631993p+3")),
}


@pytest.mark.parametrize("name, symmetry", list(_CACHE_PINS))
def test_cell_cache_sums_are_pinned(name, symmetry):
    surface = dataclasses.replace(make(name, t_max=4.0), symmetry=symmetry)
    field = build_field(surface, 4.0, spec=GridSpec(96, 96))
    cache = ensure_cell_cache(field)
    sums = tuple(float(np.sum(cache[c])).hex() for c in quadrature.CHANNELS)
    assert (len(field.cell_order), sums) == _CACHE_PINS[name, symmetry]


def test_cut_cell_fallbacks_converge_with_depth(catenoid_192, monkeypatch):
    # Just past the catenoid's neck saddle at r = 2 the level curve
    # pinches inside a few cells; the slicer rejects them, so they
    # subdivide, and at the depth cap the terminal polygon estimates
    # what is left.  Each extra level of subdivision must move every
    # channel closer to the uncapped ball.
    field = catenoid_192
    t = 2.0 + 1e-5
    ref = extract_ball(field, t).integrals

    rejected = []
    slice_cells = quadrature._slice_cells

    def spy(*args):
        contrib, ok = slice_cells(*args)
        rejected.append(int(np.count_nonzero(~ok)))
        return contrib, ok

    polygons = []
    terminal_polygon = quadrature._terminal_polygon

    def polygon_spy(fc):
        polygons.append(fc)
        return terminal_polygon(fc)

    monkeypatch.setattr(quadrature, "_slice_cells", spy)
    monkeypatch.setattr(quadrature, "_terminal_polygon", polygon_spy)
    errors = []
    for depth in (0, 1, 2):
        monkeypatch.setattr(quadrature, "_MAX_DEPTH", depth)
        rejected.clear()
        polygons.clear()
        got = extract_ball(field, t).integrals
        errors.append({name: abs(got[name] - ref[name]) for name in ref})
        if depth == 0:
            assert rejected[0] > 0 and len(polygons) == rejected[0]
    for name in ref:
        coarse, mid, fine = (err[name] for err in errors)
        assert coarse > mid > fine, (name, errors)
        assert coarse > 1e-5


def _cut_cell_totals(field, t):
    """Cut-cell totals of the level t from the level's shared crossings."""
    level = _level(field, t)
    return quadrature.integrate_cut_cells(field, t, level.cells,
                                          *level.cell_edges())


# Per-channel cut-cell totals of the catenoid at 192^2 around the default
# pole (one, |B|^2, K).  The three levels reach every piece shape of the
# slicer: along-u and along-v cells (t = 1, a disk around the pole),
# side pieces of zero width, full ones and empty ones (all three),
# subdivided children (the neck pinch just past r = 2) and cells on the
# u-periodic seam (all three).  Grid cells read their crossings from the
# level's one solve per cut edge.  Any change to which points the slicer
# evaluates must leave these bits alone.
_CUT_CELL_PINS = {
    1.0: ("0x1.990425087167ap-3", "0x1.8bfb3919812f6p-3",
          "-0x1.8bfb3919812f7p-4"),
    2.0 + 1e-5: ("0x1.b055439e2b674p-1", "0x1.6b559d91813d8p-2",
                 "-0x1.6b559d91813d8p-3"),
    3.0: ("0x1.82986f2dc3b63p+0", "0x1.92f8e32accf07p-4",
          "-0x1.92f8e32accf07p-5"),
}


@pytest.mark.parametrize("t", sorted(_CUT_CELL_PINS))
def test_cut_cell_totals_are_pinned(catenoid_192, t):
    got = _cut_cell_totals(catenoid_192, t)
    assert [x.hex() for x in got] == list(_CUT_CELL_PINS[t])


@pytest.mark.parametrize("t", sorted(_CUT_CELL_PINS))
def test_slicer_evaluates_at_most_32_points_per_cell(catenoid_192, t,
                                                     monkeypatch):
    # A non-saddle cut cell has at most one full side piece (two would put
    # all four corners inside), so at most two of its three 16-point
    # pieces carry weight, and only those points reach frames.  The
    # bound holds per cell that the slicer accepts.
    calls = []
    slice_cells = quadrature._slice_cells
    quad_frames = quadrature.frames

    def slice_spy(*args):
        calls.append({"cells": 0, "points": 0, "open": True})
        try:
            contrib, ok = slice_cells(*args)
        finally:
            calls[-1]["open"] = False
        calls[-1]["cells"] = int(np.count_nonzero(ok))
        return contrib, ok

    def frames_spy(surface, u, v):
        if calls and calls[-1]["open"]:
            calls[-1]["points"] += np.size(u)
        return quad_frames(surface, u, v)

    monkeypatch.setattr(quadrature, "_slice_cells", slice_spy)
    monkeypatch.setattr(quadrature, "frames", frames_spy)
    _cut_cell_totals(catenoid_192, t)
    assert calls and all(c["cells"] > 0 for c in calls)
    for c in calls:
        assert 0 < c["points"] <= 32 * c["cells"], (t, calls)


# Fields whose poles both chart mirrors fix, with the radii to integrate:
# the weighted cut-cell sum must stay within 1e-12 relative of the
# all-cells sum.  The catenoid's radii are the `_CUT_CELL_PINS` levels,
# the subdivided 2 + 1e-5 among them.
_MIRROR_CASES = {
    "catenoid": (4.0, 192, sorted(_CUT_CELL_PINS)),
    "enneper": (4.0, 128, (0.7, 2.0, 4.0)),
    "hyperbolic_catenoid": (6.0, 192, (1.0, 3.0, 6.0)),
}


def _unmirrored(field):
    """The same field with every cut cell integrated (weight 1 each)."""
    return dataclasses.replace(field, mirrors=(False, False))


@pytest.mark.parametrize("name", sorted(_MIRROR_CASES))
def test_mirror_weights_match_every_cell(name, catenoid_192):
    t_max, n, radii = _MIRROR_CASES[name]
    field = catenoid_192 if name == "catenoid" else build_field(
        make(name, t_max=t_max), t_max, spec=GridSpec(n, n))
    assert field.mirrors == (True, True)
    ensure_cell_cache(field)
    for t in radii:
        level = _level(field, t)
        weight = quadrature._orbit_weights(field, level.cells.ids)
        assert weight is not None
        # A quarter of the cells, up to those on the mirror lines.
        assert np.sum(weight) == len(level.cells)
        assert np.count_nonzero(weight) <= len(level.cells) // 4 + n
        got = region_integral(field, t, level)
        ref = region_integral(_unmirrored(field), t, level)
        for channel in quadrature.CHANNELS:
            assert got[channel] == pytest.approx(ref[channel], rel=1e-12,
                                                 abs=0.0), (t, channel)


def test_poles_off_a_mirror_integrate_its_other_half(monkeypatch):
    surface = make("catenoid", t_max=4.0)
    sliced = []
    slice_cells = quadrature._slice_cells

    def spy(*args):
        sliced.append(len(args[2]))
        return slice_cells(*args)

    monkeypatch.setattr(quadrature, "_slice_cells", spy)
    for pole_uv, mirrors, share in (((0.7, 0.3), (False, False), 1.0),
                                    ((0.7, 0.0), (False, True), 0.5)):
        pole = surface.eval(np.array([pole_uv[0]]),
                            np.array([pole_uv[1]]))[:, 0]
        field = build_field(surface, 4.0, pole=pole, spec=GridSpec(128, 128))
        assert field.mirrors == mirrors
        level = _level(field, 1.5)
        sliced.clear()
        got = region_integral(field, 1.5, level)
        assert sliced[0] == pytest.approx(share * len(level.cells), abs=2)
        if share == 1.0:
            ref = region_integral(_unmirrored(field), 1.5, level)
            assert got == ref


def test_mirror_weights_need_a_closed_cut_set(catenoid_192):
    # Nudge the node just outside the level that is nearest to it across
    # it, off both mirror lines: its cells' images stay uncut, so the
    # weights fall back to 1 and the sum is the unweighted one bitwise.
    t = 1.0
    ensure_cell_cache(catenoid_192)
    r = catenoid_192.r.copy()
    outside = np.where(r > t, r, np.inf)
    outside[[0, 95, 96], :] = np.inf
    outside[:, [94, 95, 96]] = np.inf
    i, j = np.unravel_index(np.argmin(outside), r.shape)
    r[i, j] = t - 1e-6
    field = dataclasses.replace(catenoid_192, r=r)
    level = _level(field, t)
    assert quadrature._orbit_weights(catenoid_192,
                                     _level(catenoid_192, t).cells.ids) \
        is not None
    assert quadrature._orbit_weights(field, level.cells.ids) is None
    got = region_integral(field, t, level)
    ref = region_integral(_unmirrored(field), t, level)
    assert [x.hex() for x in got.values()] == [x.hex() for x in ref.values()]
