"""Tests for per-radius functionals: geodesic curvature by two routes,
Gauss-Bonnet, the comparison bounds, and the radius-series helpers.
Per-radius scalars are read from the record the pipeline builds:
extract_ball, then kg_gaps, then radius_record.

Closed-form targets used here:
  - round disk in the plane: k_g = 1/t, chi = 1;
  - geodesic disk of the totally geodesic H^2: k_g = coth t, chi = 1,
    boundary length 2 pi sinh t, area 2 pi (cosh t - 1);
  - Euclidean chord ball on the unit sphere at t = 1: a cap whose
    boundary circle has intrinsic radius pi/3, hence k_g = cot(pi/3)
    = 1/sqrt(3);
  - the divergence bound with zero normal gradient reduces to
    coarea - h(t) * area, evaluable in closed form on the models.
"""

import math

import numpy as np
import pytest

from extballs import functionals
from extballs.domains import build_field, extract_ball
from extballs.errors import ConfigError
from extballs.functionals import (RadiusRecord, RadiusSeries,
                                  divergence_bound_sides, euler_bound_sides,
                                  geodesic_curvature_direct,
                                  geodesic_curvature_formula, kg_gaps,
                                  radius_record)
from oracles import make

COTH1 = 1.3130352854993315


@pytest.fixture(scope="module")
def plane_field():
    return build_field(make("plane", t_max=4.0), 4.0)


@pytest.fixture(scope="module")
def h2_field():
    return build_field(make("h2_in_h3", t_max=4.0), 4.0)


@pytest.fixture(scope="module")
def catenoid_field():
    return build_field(make("catenoid", t_max=6.0), 6.0)


@pytest.fixture(scope="module")
def sphere_field():
    return build_field(make("sphere_control", t_max=1.5), 1.5)


def _record(field, t):
    """The record of radius t as the pipeline builds it (minimal surface)."""
    ball = extract_ball(field, t)
    return radius_record(field, ball, kg_gaps(field, [ball])[0], True)


# ---------------------------------------------------------------------------
# Geodesic curvature: closed forms and route agreement


def test_plane_circle_kg_both_routes(plane_field):
    for t in (1.0, 2.5):
        ball = extract_ball(plane_field, t)
        formula = geodesic_curvature_formula(plane_field, ball.samples)
        direct = geodesic_curvature_direct(plane_field, ball.samples)
        assert np.max(np.abs(formula - 1.0 / t)) < 1e-7
        assert np.max(np.abs(direct - 1.0 / t)) < 1e-5


def test_h2_circle_kg_both_routes(h2_field):
    ball = extract_ball(h2_field, 1.0)
    formula = geodesic_curvature_formula(h2_field, ball.samples)
    direct = geodesic_curvature_direct(h2_field, ball.samples)
    assert np.max(np.abs(formula - COTH1)) < 1e-7
    assert np.max(np.abs(direct - COTH1)) < 1e-5


def test_sphere_cap_kg_both_routes(sphere_field):
    target = 1.0 / math.sqrt(3.0)
    ball = extract_ball(sphere_field, 1.0)
    formula = geodesic_curvature_formula(sphere_field, ball.samples)
    direct = geodesic_curvature_direct(sphere_field, ball.samples)
    assert np.max(np.abs(formula - target)) < 1e-7
    assert np.max(np.abs(direct - target)) < 1e-5


def test_kg_gap_catenoid_two_components(catenoid_field):
    gap = kg_gaps(catenoid_field, [extract_ball(catenoid_field, 5.0)])[0]
    assert gap["max_gap"] < 1e-5
    assert len(gap["direct"]) == len(gap["formula"])


def test_kg_gap_reports_boundary_turning(plane_field):
    rec = _record(plane_field, 2.0)
    assert rec.intKg == pytest.approx(2.0 * math.pi, rel=1e-6)


# ---------------------------------------------------------------------------
# Gauss-Bonnet estimate


def test_chi_plane_disk(plane_field):
    assert _record(plane_field, 2.0).chi_hat == pytest.approx(1.0, abs=1e-6)


def test_chi_h2_disk(h2_field):
    assert _record(h2_field, 2.0).chi_hat == pytest.approx(1.0, abs=1e-6)


def test_chi_catenoid_annulus(catenoid_field):
    assert _record(catenoid_field, 5.0).chi_hat == pytest.approx(
        0.0, abs=0.05)


# ---------------------------------------------------------------------------
# Curvature integrals


def test_totally_geodesic_curvature_vanishes(plane_field, h2_field):
    plane = _record(plane_field, 2.0)
    h2 = _record(h2_field, 2.0)
    assert plane.R < 1e-12
    assert h2.R < 1e-10
    assert plane.max_B < 1e-8
    assert h2.max_B < 1e-7


def test_catenoid_curvature_decays(catenoid_field):
    near = _record(catenoid_field, 2.5)
    far = _record(catenoid_field, 5.5)
    assert far.max_B < near.max_B
    assert far.R < 8.0 * math.pi


# ---------------------------------------------------------------------------
# Comparison bounds


def _divergence_sides(field, t):
    ball = extract_ball(field, t)
    rec = radius_record(field, ball, kg_gaps(field, [ball])[0], True)
    sides = divergence_bound_sides(field, ball, rec.coarea)
    assert rec.div_margin == sides["margin"]
    return sides


def test_divergence_bound_plane_closed_form(plane_field):
    sides = _divergence_sides(plane_field, 1.0)
    # lhs = 0 (no normal share); rhs = 2 pi t - (1/t) pi t^2 = pi t.
    assert sides["lhs"] == pytest.approx(0.0, abs=1e-10)
    assert sides["rhs"] == pytest.approx(math.pi, rel=1e-6)
    assert sides["margin"] > 0.0


def test_divergence_bound_h2_closed_form(h2_field):
    sides = _divergence_sides(h2_field, 1.0)
    rhs_exact = 2.0 * math.pi * (math.sinh(1.0)
                                 - COTH1 * (math.cosh(1.0) - 1.0))
    assert sides["lhs"] == pytest.approx(0.0, abs=1e-10)
    assert sides["rhs"] == pytest.approx(rhs_exact, rel=1e-6)
    assert sides["margin"] > 0.0


def test_euler_bound_plane_hand_check():
    # Flat ambient, unit disk, alpha = 1: f2 = h = 1, chi = 1,
    # area = pi, coarea = 2 pi, R = R' = 0 gives lhs = -pi/2, rhs = 0.
    form = make("plane", t_max=2.0).form
    sides = euler_bound_sides(form, 1.0, 1.0, R=0.0, R_prime=0.0,
                              area=math.pi, coarea=2.0 * math.pi, chi=1)
    assert sides["lhs"] == pytest.approx(-0.5 * math.pi, rel=1e-12)
    assert sides["rhs"] == 0.0
    assert sides["margin"] == pytest.approx(0.5 * math.pi, rel=1e-12)


def test_euler_bound_alpha_range():
    form = make("plane", t_max=2.0).form
    for alpha in (0.0, 2.0, -0.5):
        with pytest.raises(ConfigError):
            euler_bound_sides(form, 1.0, alpha, R=0.0, R_prime=0.0,
                              area=1.0, coarea=1.0, chi=1)


# ---------------------------------------------------------------------------
# Radius-series helpers


def _series(ts, **columns):
    records = []
    for i, t in enumerate(ts):
        rec = RadiusRecord(t=t)
        for key, vals in columns.items():
            setattr(rec, key, vals[i])
        records.append(rec)
    return RadiusSeries(records=records, R0=0.5)


def test_fill_R_prime_parabola_exact():
    ts = [1.0, 2.0, 3.0, 4.0]
    series = _series(ts, R=[t * t for t in ts])
    series.fill_R_prime()
    # Interior points use a three-point parabola: exact on R = t^2.
    assert series.records[1].R_prime == pytest.approx(4.0, rel=1e-12)
    assert series.records[2].R_prime == pytest.approx(6.0, rel=1e-12)
    # Endpoints fall back to one-sided slopes.
    assert series.records[0].R_prime == pytest.approx(3.0, rel=1e-12)
    assert series.records[3].R_prime == pytest.approx(7.0, rel=1e-12)


def test_fill_R_prime_skips_masked_records():
    series = _series([1.0, 2.0, 3.0], R=[1.0, 99.0, 3.0])
    series.records[1].skipped = True
    series.fill_R_prime()
    assert math.isnan(series.records[1].R_prime)


def test_chi_plateau_constant():
    series = _series([1.0, 2.0, 3.0], chi_hat=[0.98, 1.01, 1.0])
    plateau = series.chi_plateau()
    assert plateau["chi"] == 1
    assert plateau["max_residual"] == pytest.approx(0.02)
    assert plateau["constant"] is True
    assert plateau["count"] == 3


def test_chi_plateau_ignores_presettled_radii():
    series = _series([0.2, 1.0, 2.0], chi_hat=[7.3, 1.0, 1.0])
    assert series.chi_plateau()["chi"] == 1
    assert series.chi_plateau()["constant"] is True


def test_chi_plateau_detects_jumps():
    series = _series([1.0, 2.0], chi_hat=[1.0, 2.0])
    assert series.chi_plateau()["constant"] is False


def test_R_growth_over_doubling():
    series = _series([1.0, 2.0, 4.0], R=[1.0, 2.0, 5.0])
    assert series.R_growth_over_doubling() == pytest.approx(3.0)


def test_record_flattens_euler_margins():
    rec = RadiusRecord(t=1.0, euler_margins={0.25: 1.5, 1.0: 2.5})
    row = rec.as_dict()
    assert row["euler_margin_a025"] == 1.5
    assert row["euler_margin_a100"] == 2.5
    assert math.isnan(row["euler_margin_a050"])
    assert math.isnan(row["euler_margin_a150"])
    assert "euler_margins" not in row


def test_R_growth_needs_a_doubling_partner():
    # the nearest radius below t_last/2 sits 3.46x down (geomspace count 3)
    series = _series(list(np.geomspace(0.5, 6.0, 3)), R=[1.0, 2.0, 5.0])
    assert math.isnan(series.R_growth_over_doubling())
    series = _series([1.0, 3.2, 8.0], R=[1.0, 2.0, 5.0])
    assert series.R_growth_over_doubling() == pytest.approx(3.0)


def test_R_growth_partner_must_reach_r0():
    series = _series([1.0, 2.0, 4.0], R=[1.0, 2.0, 5.0])
    series.R0 = 2.5
    assert math.isnan(series.R_growth_over_doubling())
    series.R0 = 2.0
    assert series.R_growth_over_doubling() == pytest.approx(3.0)
    series.R0 = float("nan")
    assert series.R_growth_over_doubling() == pytest.approx(3.0)


def test_R_growth_partner_on_a_ratio_174_schedule():
    # geomspace(0.5, 8, 6): the partner of t = 8 is 2.64, 3.03x down.
    ts = list(np.geomspace(0.5, 8.0, 6))
    series = _series(ts, R=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    assert ts[-2] > 4.0 and ts[-1] / ts[3] == pytest.approx(3.03, abs=0.01)
    assert series.R_growth_over_doubling() == pytest.approx(6.0 - 4.0)


@pytest.fixture(scope="module")
def catenoid_balls():
    from extballs.domains import GridSpec

    field = build_field(make("catenoid", t_max=6.0), 6.0,
                        spec=GridSpec(192, 192))
    return field, [extract_ball(field, t) for t in (0.5, 1.0, 2.5, 4.0, 6.0)]


@pytest.mark.parametrize("budget", ["default", "small"])
def test_kg_gaps_batch_equals_per_ball(catenoid_balls, budget, monkeypatch):
    # kg_gaps traces consecutive balls in groups of at most
    # BATCH_POINTS // 2 samples (the group's two passes run at once), a
    # larger ball alone; no grouping moves a bit.  The small budget holds
    # the first two balls together and leaves the third, larger than it,
    # on its own.
    field, balls = catenoid_balls
    sizes = [len(ball.samples) for ball in balls]
    if budget == "small":
        monkeypatch.setattr(functionals, "BATCH_POINTS",
                            2 * (sizes[0] + sizes[1]))
        assert sizes[2] > sizes[0] + sizes[1]
        expected = [sizes[:2], sizes[2:3], sizes[3:4], sizes[4:]]
    else:
        expected = [sizes]
    groups = []
    direct_route = functionals.geodesic_curvature_direct

    def spy(field, samples, runs=None):
        groups.append(runs)
        return direct_route(field, samples, runs=runs)

    monkeypatch.setattr(functionals, "geodesic_curvature_direct", spy)
    batch = kg_gaps(field, balls)
    assert groups == expected
    assert kg_gaps(field, []) == []
    for ball, got in zip(balls, batch):
        direct = direct_route(field, ball.samples)
        assert np.array_equal(got["direct"], direct)
        one = kg_gaps(field, [ball])[0]
        assert np.array_equal(got["formula"], one["formula"])
        assert got["max_gap"] == one["max_gap"]
        assert got["intKg"] == one["intKg"]
