"""Tests for per-radius functionals: geodesic curvature by two routes
and the trace oracle, Gauss-Bonnet, the comparison bounds, and the
radius-series helpers.  Per-radius scalars are read from the record the
pipeline builds: extract_ball, then radius_record.

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

import json
import math

import numpy as np
import pytest

from extballs import cli, functionals, immersion, pipeline
from extballs.domains import build_field, extract_ball
from extballs.domains.balls import BoundarySamples
from extballs.errors import ConfigError
from extballs.functionals import (RadiusRecord, RadiusSeries,
                                  divergence_bound_sides, euler_bound_sides,
                                  geodesic_curvature_formula,
                                  geodesic_curvature_hessian, radius_record)
from extballs.pipeline import run_surface
from extballs.space_forms import SpaceForm
from oracles import geodesic_curvature_direct, make

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
    return radius_record(field, extract_ball(field, t), True)


# ---------------------------------------------------------------------------
# Geodesic curvature: closed forms and route agreement


def _kg_routes(field, t):
    """k_g of the ball of radius t by both routes and by the trace."""
    samples = extract_ball(field, t).samples
    return (geodesic_curvature_formula(field, samples),
            geodesic_curvature_hessian(field, samples),
            geodesic_curvature_direct(field, samples))


def test_plane_circle_kg_both_routes(plane_field):
    for t in (1.0, 2.5):
        for kg in _kg_routes(plane_field, t):
            assert np.max(np.abs(kg - 1.0 / t)) < 1e-7


def test_h2_circle_kg_both_routes(h2_field):
    for kg in _kg_routes(h2_field, 1.0):
        assert np.max(np.abs(kg - COTH1)) < 1e-7


def test_sphere_cap_kg_both_routes(sphere_field):
    target = 1.0 / math.sqrt(3.0)
    for kg in _kg_routes(sphere_field, 1.0):
        assert np.max(np.abs(kg - target)) < 1e-7


def test_kg_gap_catenoid_two_components(catenoid_field):
    ball = extract_ball(catenoid_field, 5.0)
    assert ball.n_components == 2
    rec = radius_record(catenoid_field, ball, True)
    formula, hessian, _ = _kg_routes(catenoid_field, 5.0)
    assert rec.kg_gap_max == np.max(np.abs(hessian - formula)) < 1e-10


@pytest.fixture(scope="module")
def enneper_field():
    return build_field(make("enneper", t_max=4.0), 4.0)


@pytest.mark.parametrize("name, t", [
    ("catenoid", 1.0), ("catenoid", 3.0), ("catenoid", 5.0),
    ("enneper", 1.0), ("enneper", 3.0), ("h2_in_h3", 4.0)])
def test_trace_oracle_matches_formula(name, t, request):
    # The positions-only trace guards what both frame routes read: the
    # samples' tangents e and the radial split.  It resolves on these
    # balls (off critical radii, t >= 1 in H^3); the closed-form tests
    # above hold it on the plane and at t = 1 on h2_in_h3.
    field = request.getfixturevalue(
        {"h2_in_h3": "h2_field"}.get(name, f"{name}_field"))
    formula, hessian, trace = _kg_routes(field, t)
    assert np.max(np.abs(trace - formula)) < 1e-6
    assert np.max(np.abs(hessian - formula)) < 1e-9


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
    rec = radius_record(field, ball, True)
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


def test_reports_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    # Each radius's Hessian route runs inside its extraction item, in
    # chunks of fixed size, so one, two and three workers write the same
    # bytes.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "surface": "hyperbolic_catenoid", "grid": [192, 192],
        "schedule": {"t_min": 0.5, "t_max": 6.0, "count": 5}}))
    outputs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(immersion, "_WORKERS", workers)
        out = tmp_path / f"workers{workers}"
        assert cli.main(["report", str(config), "--out", str(out),
                         "--quiet"]) == 0
        outputs.append([(out / name).read_bytes()
                        for name in ("report.json", "series.csv")])
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


# ---------------------------------------------------------------------------
# Mutations the k_g check must catch, each on a 128^2 catalog run whose
# unmutated kg_identity passes.


def _edit_samples(monkeypatch, edit):
    """Apply ``edit`` to every ball's samples as the pipeline extracts it."""
    extract = pipeline.extract_ball

    def edited(field, t):
        ball = extract(field, t)
        edit(ball.samples)
        return ball

    monkeypatch.setattr(pipeline, "extract_ball", edited)


def _rotate_e(samples, angle=1e-3):
    samples.e = (math.cos(angle) * samples.e
                 + math.sin(angle) * samples.frame.rotate90(samples.e))


def _flip_N(samples):
    samples.frame.N = -samples.frame.N


def _drop_normal_term(monkeypatch):
    monkeypatch.setattr(functionals, "_normal_term",
                        lambda form, samples: np.zeros(len(samples)))


def _scale_radial(monkeypatch):
    split = SpaceForm.radial_split

    def scaled(self, o, x):
        r, radial = split(self, o, x)
        return r, (1.0 + 1e-4) * radial

    monkeypatch.setattr(SpaceForm, "radial_split", scaled)


_TINY_H2 = ("h2_in_h3", dict(t_min=0.01, t_max=0.02, count=2))

MUTATIONS = {
    "normal_term_dropped": (_drop_normal_term, ("catenoid", {})),
    "N_flipped": (lambda mp: _edit_samples(mp, _flip_N), ("catenoid", {})),
    "radial_scaled": (_scale_radial, ("plane", {})),
    # Both routes read e, so they differ only by h(t) |grad r| angle^2;
    # that clears the tolerance on tiny balls only, where h(t) ~ 1/t.
    "e_rotated": (lambda mp: _edit_samples(mp, _rotate_e), _TINY_H2),
}


def _kg_verdict(name, kwargs):
    res = run_surface(name, grid=(128, 128), **kwargs)
    return next(v for v in res.report.verdicts if v.name == "kg_identity")


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_kg_identity_catches_mutation(mutation, monkeypatch):
    apply, (name, kwargs) = MUTATIONS[mutation]
    clean = _kg_verdict(name, kwargs)
    assert clean.applicable and clean.passed
    apply(monkeypatch)
    mutated = _kg_verdict(name, kwargs)
    assert mutated.applicable and not mutated.passed


def test_trace_oracle_catches_rotated_tangent(catenoid_field):
    # Off tiny balls, a tangent error moves the formula and Hessian
    # routes together to first order, and kg_identity stays quiet; the
    # positions-only trace, which reads e for its first step only, is
    # what catches it.
    samples = extract_ball(catenoid_field, 3.0).samples
    rotated = BoundarySamples(samples.uv, samples.weight, samples.e,
                              samples.frame)
    _rotate_e(rotated)
    formula = geodesic_curvature_formula(catenoid_field, rotated)
    hessian = geodesic_curvature_hessian(catenoid_field, rotated)
    trace = geodesic_curvature_direct(catenoid_field, rotated)
    assert np.max(np.abs(hessian - formula)) < 1e-5
    assert np.max(np.abs(trace - formula)) > 1e-5
