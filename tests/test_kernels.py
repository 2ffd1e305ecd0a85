"""Grid kernels: stable acosh, cell classification, contour segments."""

import numpy as np
import pytest

from extballs.domains.contours import segment_edges
from extballs.domains.field import cut_cells
from extballs.space_forms import stable_acosh
from oracles import cell_cases, corner_views


def _segments(r, t, periodic_u):
    """Contour segments of {r = t} over every cell of the node array r."""
    n_cells = (r.shape[0] - (not periodic_u)) * (r.shape[1] - 1)
    return segment_edges(cut_cells(r, t, periodic_u, np.arange(n_cells)), t)


def test_stable_acosh_frozen_value():
    # acosh(3) = log(3 + 2 sqrt 2)
    assert stable_acosh(np.array([2.0]))[0] == pytest.approx(
        1.762747174039086, rel=1e-15)


def test_stable_acosh_zero_and_negative_clamp():
    out = stable_acosh(np.array([0.0, -1e-9]))
    assert out[0] == 0.0
    assert out[1] == 0.0


def test_stable_acosh_against_longdouble():
    # independent reference: acosh evaluated in 80-bit arithmetic, which
    # keeps enough of x^2 - 1 to serve as an oracle down to delta ~ 1e-12
    d = np.logspace(-12, -1, 45)
    ours = stable_acosh(d)
    ref = np.arccosh(np.longdouble(1.0) + d.astype(np.longdouble))
    rel = np.abs(ours.astype(np.longdouble) - ref) / ref
    assert float(rel.max()) < 1e-7
    # away from the cancellation region the reference is sharp
    assert float(rel[d > 1e-6].max()) < 1e-12


def test_stable_acosh_branch_continuity():
    lo = stable_acosh(np.array([1e-4 * (1 - 1e-12)]))[0]
    hi = stable_acosh(np.array([1e-4 * (1 + 1e-12)]))[0]
    assert lo == pytest.approx(hi, rel=1e-12)


def test_stable_acosh_monotone():
    d = np.logspace(-14, 2, 300)
    out = stable_acosh(d)
    assert np.all(np.diff(out) > 0)


def test_classify_cells_counts():
    r = np.array([[0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0],
                  [2.0, 2.0, 2.0]])
    out = cell_cases(r, 1.0, periodic_u=False)
    assert out.shape == (2, 2)
    assert np.all(out[0] == 15)     # all four corners inside
    assert np.all((out[1] > 0) & (out[1] < 15))     # mixed
    out2 = cell_cases(r, 5.0, periodic_u=False)
    assert np.all(out2 == 15)
    out3 = cell_cases(r, -1.0, periodic_u=False)
    assert np.all(out3 == 0)


def test_classify_cells_periodic_shape():
    uu = np.linspace(0, 2 * np.pi, 8, endpoint=False)[:, None]
    vv = np.linspace(-1, 1, 5)[None, :]
    r = 1.5 + np.cos(uu) * 0.7 + vv**2 + 0.05 * np.cos(3 * uu) * vv
    out = cell_cases(r, 1.5, periodic_u=True)
    assert out.shape == (8, 4)


def test_periodic_corners_wrap_the_seam_column():
    # explicit (i + 1) % n_u gathers, seam column included
    rng = np.random.default_rng(7)
    n_u, n_v = 9, 6
    a = rng.standard_normal((n_u, n_v))
    i = np.arange(n_u)[:, None]
    j = np.arange(n_v - 1)[None, :]
    nxt = (i + 1) % n_u
    expected = (a[i, j], a[nxt, j], a[nxt, j + 1], a[i, j + 1])
    views = corner_views(a, periodic_u=True)
    for view, want in zip(views, expected):
        assert view.shape == (n_u, n_v - 1)
        assert np.array_equal(view, want)
    t = 0.1
    want = sum((c < t).astype(np.int16) << k for k, c in enumerate(expected))
    cases = cell_cases(a, t, periodic_u=True)
    assert cases.dtype == np.int16
    assert np.array_equal(cases, want)
    assert np.any((cases[-1] > 0) & (cases[-1] < 15))  # seam cells cut


def test_single_corner_segment_ids():
    # 2x2 grid, only node (0,0) inside: one segment joining the left and
    # bottom edges of the single cell
    r = np.array([[0.0, 1.0], [1.0, 1.0]])
    a, b = _segments(r, 0.5, False)
    assert a.shape == (1,) and b.shape == (1,)
    # bottom u-edge id 0; left v-edge id n_v*ncu + 0 = 2
    assert {int(a[0]), int(b[0])} == {2, 0}


def test_all_single_corner_cases_emit_one_segment():
    for corner in range(4):
        r = np.full((2, 2), 1.0)
        pos = [(0, 0), (1, 0), (1, 1), (0, 1)][corner]
        r[pos] = 0.0
        a, b = _segments(r, 0.5, False)
        assert a.shape == (1,), f"corner {corner}"
        assert a[0] != b[0]


@pytest.mark.parametrize("code, r_join, r_split", [
    # corners c0 and c2 inside
    (5, [[0.0, 1.0], [1.0, 0.1]], [[0.0, 1.9], [1.9, 0.1]]),
    # corners c1 and c3 inside
    (10, [[1.0, 0.0], [0.1, 1.0]], [[1.9, 0.0], [0.1, 1.9]]),
], ids=["case5", "case10"])
def test_saddle_center_disambiguation(code, r_join, r_split):
    # the center average picks the topology: low center (mean 0.525 < t)
    # joins the inside corners, high center (mean 0.975 > t) splits them
    r_join, r_split = np.array(r_join), np.array(r_split)
    t = 0.55
    case_join = cell_cases(r_join, t, periodic_u=False)
    case_split = cell_cases(r_split, t, periodic_u=False)
    assert case_join.tolist() == case_split.tolist() == [[code]]
    aj, bj = _segments(r_join, t, False)
    asp, bsp = _segments(r_split, t, False)
    assert aj.shape == (2,) and asp.shape == (2,)
    assert (sorted(zip(aj.tolist(), bj.tolist()))
            != sorted(zip(asp.tolist(), bsp.tolist())))


def test_crossed_edges_have_degree_two_on_closed_curves():
    # a smooth bump fully inside the grid: the contour is closed, so every
    # crossed edge must be shared by exactly two segments
    n = 40
    x = np.linspace(-2, 2, n)
    r = np.hypot(x[:, None], x[None, :])
    a, b = _segments(r, 1.37, False)
    ids, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    assert ids.size > 20
    assert np.all(counts == 2)


def test_periodic_contour_wraps_seam():
    # r depends only on v: the level curve is a full periodic row of
    # segments crossing every cell column exactly once per level
    n_u, n_v = 12, 9
    v = np.linspace(-2, 2, n_v)
    r = np.broadcast_to(np.abs(v)[None, :], (n_u, n_v)).copy()
    a, b = _segments(r, 1.0, True)
    # two levels (v = -1 and v = +1), each crossing n_u cell columns
    assert a.size == 2 * n_u
    ids, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    assert np.all(counts == 2)
