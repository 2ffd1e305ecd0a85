"""End-to-end pipeline and verdict-semantics tests at small scale.

Full-resolution validation lives in the acceptance suite; these runs use
coarse grids and short schedules to pin down structure: exit-status
logic, verdict applicability, schedule handling, and report assembly.
"""

import math

import numpy as np
import pytest

from extballs.errors import ConfigError
from extballs.pipeline import make_schedule, run_surface
from extballs.verdicts import DEFAULT_TOLERANCES


@pytest.fixture(scope="module")
def plane_run():
    return run_surface("plane", t_min=0.5, t_max=3.0, count=4,
                       grid=(128, 128))


@pytest.fixture(scope="module")
def helicoid_run():
    return run_surface("helicoid", t_min=1.0, t_max=8.0, count=6,
                       grid=(128, 128))


@pytest.fixture(scope="module")
def sphere_run():
    return run_surface("sphere_control", grid=(128, 128))


@pytest.fixture(scope="module")
def h2_run():
    return run_surface("h2_in_h3", t_min=0.5, t_max=4.0, count=6,
                       grid=(128, 128))


def _verdict(report, name):
    for v in report.verdicts:
        if v.name == name:
            return v
    raise AssertionError(f"no verdict named {name}")


# ---------------------------------------------------------------------------
# Schedules


def test_make_schedule_shapes():
    geo = make_schedule(0.5, 8.0, 5, "geometric")
    assert len(geo) == 5
    assert geo[0] == pytest.approx(0.5) and geo[-1] == pytest.approx(8.0)
    steps = np.diff(np.log(geo))
    assert np.allclose(steps, steps[0])
    lin = make_schedule(1.0, 3.0, 3, "linear")
    assert np.allclose(lin, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [
    dict(t_min=0.0, t_max=1.0, count=3, spacing="geometric"),
    dict(t_min=2.0, t_max=1.0, count=3, spacing="geometric"),
    dict(t_min=0.5, t_max=1.0, count=1, spacing="geometric"),
    dict(t_min=0.5, t_max=1.0, count=3, spacing="cubic"),
])
def test_make_schedule_rejects(bad):
    with pytest.raises(ConfigError):
        make_schedule(**bad)


def test_run_surface_rejects_unknown_name():
    with pytest.raises(ConfigError):
        run_surface("moebius")


def test_run_surface_rejects_bad_alpha():
    with pytest.raises(ConfigError):
        run_surface("plane", alphas=(3.0,), grid=(64, 64), t_max=2.0,
                    count=2)


def test_run_surface_rejects_periodicity_mismatch():
    with pytest.raises(ConfigError):
        run_surface("catenoid", periodic_u=False, grid=(64, 64),
                    t_max=3.0, count=2)
    with pytest.raises(ConfigError):
        run_surface("plane", periodic_u=True, grid=(64, 64),
                    t_max=2.0, count=2)


def test_run_surface_accepts_matching_periodicity():
    res = run_surface("plane", periodic_u=False, periodic_v=False,
                      grid=(64, 64), t_min=0.5, t_max=2.0, count=2)
    assert res.report.exit_status == 0


# ---------------------------------------------------------------------------
# Flat control: the plane


def test_plane_report_basics(plane_run):
    rep = plane_run.report
    assert rep.surface == "plane"
    assert rep.exit_status == 0
    assert rep.chi == 1
    assert rep.measured_minimal and rep.declared_minimal
    assert not rep.hypothesis_violated
    assert rep.R_end == pytest.approx(0.0, abs=1e-10)
    assert rep.sup_growth == pytest.approx(1.0, abs=1e-6)
    assert len(plane_run.series.records) == 4
    assert math.isnan(rep.G_b)  # flat ambient has no limit defect


def test_plane_verdicts(plane_run):
    rep = plane_run.report
    assert _verdict(rep, "kg_identity").passed
    assert _verdict(rep, "chern_osserman").passed
    iso = _verdict(rep, "isoperimetric")
    assert iso.passed and abs(iso.margin) < 1e-6
    gb = _verdict(rep, "gb_chain_identity")
    assert not gb.applicable  # needs a curved ambient
    assert _verdict(rep, "minimality_oracle").passed


def test_every_verdict_has_margin_and_tol(plane_run):
    for v in plane_run.report.verdicts:
        assert isinstance(v.name, str) and v.name
        assert isinstance(v.margin, float)
        assert isinstance(v.tol, float)
        if not v.applicable:
            assert v.passed is None


# ---------------------------------------------------------------------------
# Negative control: the helicoid diverges


def test_helicoid_hypothesis_violated(helicoid_run):
    rep = helicoid_run.report
    assert rep.exit_status == 2
    assert rep.hypothesis_violated
    assert rep.measured_minimal
    tc = _verdict(rep, "total_curvature_finite")
    assert tc.applicable and tc.passed is False
    # R keeps growing: the doubling increment stays large.
    assert rep.R_growth_doubling > 5.0


def test_helicoid_curvature_does_not_decay(helicoid_run):
    decay = _verdict(helicoid_run.report, "curvature_decay")
    assert decay.applicable and decay.passed is False


# ---------------------------------------------------------------------------
# Negative control: the sphere is not minimal


def test_sphere_excluded_from_minimal_verdicts(sphere_run):
    rep = sphere_run.report
    assert rep.exit_status == 0
    assert rep.declared_minimal is False
    assert rep.measured_minimal is False
    assert rep.max_normH == pytest.approx(1.0, rel=1e-3)
    for name in ("divergence_bound", "euler_growth_bound",
                 "chern_osserman", "total_curvature_finite",
                 "ratio_monotone", "curvature_decay"):
        v = _verdict(rep, name)
        assert not v.applicable, name
        assert v.passed is None
    # The geometric identities still gate: they hold for any surface.
    assert _verdict(rep, "kg_identity").passed
    assert _verdict(rep, "chi_plateau").passed
    assert rep.chi == 1
    assert not rep.hypothesis_violated


def test_sphere_minimality_oracle_detail(sphere_run):
    v = _verdict(sphere_run.report, "minimality_oracle")
    # Declared non-minimal and measured non-minimal: consistent, passes.
    assert v.passed
    assert "1.0" in v.detail or "1.00" in v.detail


# ---------------------------------------------------------------------------
# Curved ambient: totally geodesic H^2 has zero defect


def test_h2_zero_defect(h2_run):
    rep = h2_run.report
    assert rep.exit_status == 0
    assert rep.chi == 1
    assert abs(rep.G_b) < 5e-3
    assert _verdict(rep, "gb_chain_identity").applicable
    assert _verdict(rep, "gb_chain_identity").passed
    assert _verdict(rep, "gb_nonnegative").passed
    assert abs(_verdict(rep, "isoperimetric").margin) < 1e-4
    assert rep.sup_growth == pytest.approx(1.0, abs=1e-4)
    assert rep.R_end == pytest.approx(0.0, abs=1e-8)


def test_h2_equality_gap_not_gating(h2_run):
    v = _verdict(h2_run.report, "chern_osserman_equality_gap")
    assert v.gating is False


# ---------------------------------------------------------------------------
# Report serialization round trip


def test_report_as_dict_round_trip(plane_run):
    doc = plane_run.report.as_dict()
    assert doc["surface"] == "plane"
    assert doc["exit_status"] == 0
    assert isinstance(doc["verdicts"], list)
    names = [v["name"] for v in doc["verdicts"]]
    assert "kg_identity" in names and "chern_osserman" in names
    assert doc["grid"] == (128, 128) or list(doc["grid"]) == [128, 128]


def test_default_tolerances_are_complete():
    for key in ("kg_gap", "chi_residual", "co_margin", "diverge_delta",
                "diverge_frac", "bound_margin", "gb_chain", "iso_margin",
                "minimal_H", "decay_cap"):
        assert key in DEFAULT_TOLERANCES, key


def test_run_surface_starts_no_threads(monkeypatch):
    import threading

    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self))
    run_surface("plane", t_min=0.5, t_max=2.0, count=4, grid=(64, 64))
    assert started == []


@pytest.mark.parametrize("count", [2, 3])
def test_sparse_schedule_is_not_divergence(count):
    # The nearest radius below 3 sits at 0.5 (count 2) or 1.73 (count 3),
    # far more than a doubling down: no doubling is measured.
    rep = run_surface("catenoid", t_min=0.5, t_max=6.0, count=count,
                      grid=(192, 192)).report
    assert rep.exit_status == 0
    assert not rep.hypothesis_violated
    assert math.isnan(rep.R_growth_doubling)
    assert not _verdict(rep, "total_curvature_finite").applicable
