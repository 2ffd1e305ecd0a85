"""End-to-end pipeline and verdict-semantics tests at small scale.

Full-resolution validation lives in the acceptance suite; these runs use
coarse grids and short schedules to pin down structure: exit-status
logic, verdict applicability, schedule handling, and report assembly.
"""

import importlib
import json
import math
import os
import pickle
import signal
import time
from pathlib import Path

import numpy as np
import pytest

from extballs import cli, errors, immersion, pipeline, verdicts
from extballs.domains import GridSpec, balls, build_field, extract_ball
from extballs.errors import ConfigError, CriticalRadius
from extballs.functionals import RadiusSeries
from extballs.immersion import frames
from extballs.pipeline import make_schedule, run_surface
from extballs.verdicts import TOLERANCES, build_verdicts
from oracles import make


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


def test_run_surface_accepts_pole_past_the_period():
    # The catenoid wraps in u, so u = 2 pi + 0.5 names the pole at 0.5.
    kwargs = dict(grid=(64, 64), t_min=0.5, t_max=2.0, count=2)
    wrapped = run_surface("catenoid", pole_uv=(2.0 * math.pi + 0.5, 0.0),
                          **kwargs)
    inside = run_surface("catenoid", pole_uv=(0.5, 0.0), **kwargs)
    assert wrapped.report.exit_status == inside.report.exit_status
    assert wrapped.report.R_end == pytest.approx(inside.report.R_end,
                                                 rel=1e-9)


def test_run_surface_small_plane_passes():
    res = run_surface("plane", grid=(64, 64), t_min=0.5, t_max=2.0,
                      count=2)
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


def test_minimality_oracle_probes_around_the_run_pole(monkeypatch):
    # The oracle samples the region the balls evaluate: within t_max of
    # the run's own pole, here a neck-offset one, not the chart's default.
    surface = make("hyperbolic_catenoid", t_max=8.0)
    pole = surface.eval(np.array([0.0]), np.array([2.5]))[:, 0]
    field = build_field(surface, 8.0, pole=pole, spec=GridSpec(64, 64))
    probed = []

    def spy(surf, U, V, *args, **kwargs):
        probed.append((U, V))
        return frames(surf, U, V, *args, **kwargs)

    monkeypatch.setattr(verdicts, "frames", spy)
    build_verdicts(field, RadiusSeries(records=[]),
                   surface_name="hyperbolic_catenoid", ambient="H3",
                   declared_minimal=True)
    assert probed
    U, V = (np.concatenate(part) for part in zip(*probed))
    r = surface.form.distance(pole, surface.eval(U, V))
    assert np.max(r) <= field.t_max


def test_minimality_oracle_on_a_small_ball():
    # The region within t_max = 0.1 of the pole covers under 1e-4 of the
    # chart, so the oracle must probe it without sampling the chart.
    field = build_field(make("catenoid", t_max=0.1), 0.1,
                        spec=GridSpec(64, 64))
    report = build_verdicts(field, RadiusSeries(records=[]),
                            surface_name="catenoid", ambient="R3",
                            declared_minimal=True)
    assert report.measured_minimal
    assert _verdict(report, "minimality_oracle").passed


def test_critical_rail_skips_every_radius(monkeypatch):
    # A gradient norm scaled to 1e-9 on the boundary is a critical level:
    # extraction raises and the run records every radius as skipped.
    def flat(surf, U, V, *args, **kwargs):
        fb = frames(surf, U, V, *args, **kwargs)
        fb.normGradPr = fb.normGradPr * 1e-9
        return fb

    monkeypatch.setattr(balls, "frames", flat)
    field = build_field(make("plane", t_max=2.0), 2.0, spec=GridSpec(64, 64))
    with pytest.raises(CriticalRadius):
        extract_ball(field, 1.0)
    result = run_surface("plane", t_min=0.5, t_max=2.0, count=3,
                         grid=(64, 64))
    assert all(rec.skipped for rec in result.series.records)
    assert len(result.report.skipped) == 3
    assert all("gradient norm" in note for _, note in result.report.skipped)


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
        assert key in TOLERANCES, key


def _set_workers(monkeypatch, workers):
    monkeypatch.setattr(immersion, "_WORKERS", workers)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_surface_forks_only_on_several_cpus(monkeypatch):
    # On one CPU, or where os.fork does not exist, a run forks nothing.
    # On three CPUs the maps fork two children each, and every child is
    # reaped by the time the run returns.
    kwargs = dict(t_min=0.5, t_max=2.0, count=4, grid=(64, 64))
    fork = os.fork

    def failing():
        raise AssertionError("forked on one CPU")

    _set_workers(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", failing)
    one = run_surface("plane", **kwargs).report.as_dict()
    _set_workers(monkeypatch, 3)
    monkeypatch.delattr(os, "fork")
    assert run_surface("plane", **kwargs).report.as_dict() == one

    forks = []

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted, raising=False)
    assert run_surface("plane", **kwargs).report.as_dict() == one
    assert forks and len(forks) % 2 == 0
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# Independent batches on several CPUs


_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("doc", [
    json.loads((_ROOT / "configs" / "quick.json").read_text()),
    {"surface": "hyperbolic_catenoid", "grid": [128, 128]},
], ids=["quick", "hyperbolic_catenoid_128"])
def test_reports_do_not_depend_on_the_cpu_count(doc, tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    outputs = []
    for workers in (1, 2, 3):
        _set_workers(monkeypatch, workers)
        out = tmp_path / f"workers{workers}"
        assert cli.main(["report", str(config), "--out", str(out),
                         "--quiet"]) in (0, 1, 2)
        _assert_no_child_left()
        outputs.append([(out / name).read_bytes()
                        for name in ("report.json", "series.csv")])
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_first_failing_radius_raises_on_every_cpu_count(monkeypatch):
    # The middle radius raises, and a later one raises another message;
    # every worker count raises the middle one, as the serial loop does,
    # and leaves no child behind.
    schedule = make_schedule(0.5, 2.0, 5)
    extract = pipeline.extract_ball

    def failing(field, t):
        if t == schedule[2]:
            raise ConfigError(f"middle radius {t}")
        if t == schedule[4]:
            raise ConfigError(f"last radius {t}")
        return extract(field, t)

    monkeypatch.setattr(pipeline, "extract_ball", failing)
    messages = []
    for workers in (1, 2, 3):
        _set_workers(monkeypatch, workers)
        with pytest.raises(ConfigError) as info:
            run_surface("plane", t_min=0.5, t_max=2.0, count=5,
                        grid=(64, 64))
        messages.append(str(info.value))
        _assert_no_child_left()
    assert messages == [f"middle radius {schedule[2]}"] * 3


def test_batch_map_contract(monkeypatch):
    # Results in item order, whichever process ran them; a nested map
    # runs inline, in the process of its outer item; the first exception
    # in item order is raised with its type even when a later item
    # raises first; no child is left after either map.
    _set_workers(monkeypatch, 3)
    assert immersion.batch_map(lambda x: x * x, range(50)) == [
        x * x for x in range(50)]
    nested = immersion.batch_map(
        lambda x: (os.getpid(), immersion.batch_map(
            lambda y: (os.getpid(), 10 * x + y), range(3))),
        range(4))
    for x, (pid, inner) in enumerate(nested):
        assert inner == [(pid, 10 * x + y) for y in range(3)]
    assert immersion.batch_map(abs, []) == []
    assert immersion.batch_map(abs, [-2]) == [2]
    _assert_no_child_left()

    def item(x):
        if x == 1:
            time.sleep(0.05)
            raise ValueError("item 1")
        if x == 2:
            raise KeyError("item 2")
        return x

    with pytest.raises(ValueError, match="item 1"):
        immersion.batch_map(item, range(4))
    _assert_no_child_left()


def test_batch_map_under_contention(monkeypatch):
    # More workers than CPUs, all claiming from one pipe: every item runs
    # once and lands in its slot, also in a map of more items than one
    # pipe holds tokens (16384), and no map hangs.
    _set_workers(monkeypatch, 6)

    def timeout(signum, frame):
        raise TimeoutError("a map hung")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(120)
    try:
        got = [immersion.batch_map(lambda x: x + 1, range(40))
               for _ in range(20)]
        many = immersion.batch_map(lambda x: 2 * x, range(20000))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got == [list(range(1, 41))] * 20
    assert many == list(range(0, 40000, 2))
    _assert_no_child_left()


def test_batch_map_raises_after_every_item_has_finished(monkeypatch,
                                                         tmp_path):
    # Item 0 raises once item 1 has started in the other process; the
    # map raises only after item 1 has finished and its process has been
    # reaped, so no item outlives its map.
    _set_workers(monkeypatch, 2)
    started, finished = tmp_path / "started", tmp_path / "finished"

    def item(x):
        if x == 0:
            deadline = time.monotonic() + 10
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            raise ValueError("item 0")
        started.touch()
        time.sleep(0.2)
        finished.touch()
        return x

    with pytest.raises(ValueError, match="item 0"):
        immersion.batch_map(item, range(2))
    assert finished.exists()
    _assert_no_child_left()


def test_batch_map_in_a_forked_child(monkeypatch, tmp_path):
    # Items run in the child raise CriticalRadius there, and the caller's
    # item waits until one has, so the child runs at least one; the
    # caller re-raises the first in item order with its type, message
    # and radius.
    _set_workers(monkeypatch, 2)
    caller, raised = os.getpid(), tmp_path / "raised"

    def item(x):
        if os.getpid() == caller:
            deadline = time.monotonic() + 10
            while not raised.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            return x
        raised.touch()
        raise CriticalRadius(1.25, f"item {x}")

    with pytest.raises(CriticalRadius) as info:
        immersion.batch_map(item, range(4))
    assert type(info.value) is CriticalRadius and info.value.t == 1.25
    assert str(info.value).startswith("radius t=1.25 meets a critical level")
    _assert_no_child_left()


@pytest.mark.parametrize("cls", [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.GeometryError)],
    ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    # Each error crosses the process boundary of a batch_map item with
    # its type, message and (for CriticalRadius) its radius.
    exc = cls(1.25, "detail") if cls is CriticalRadius else cls("message")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert getattr(back, "t", None) == getattr(exc, "t", None)


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


def test_doubling_partner_inside_r0_is_not_divergence():
    # geomspace(0.5, 3, 8): the partner of t = 3 is 1.392, inside the
    # neck radius R0 = 2, where R still gains the neck's curvature
    # (14.4 up to t = 3).  Read as a doubling, that growth would declare
    # infinite total curvature on the catenoid.
    rep = run_surface("catenoid", t_max=3.0, count=8,
                      grid=(192, 192)).report
    assert rep.R0 == 2.0
    assert math.isnan(rep.R_growth_doubling)
    assert not rep.hypothesis_violated
    assert rep.exit_status == 0
    tc = _verdict(rep, "total_curvature_finite")
    assert not tc.applicable
    assert "R0 = 2 " in tc.detail


@pytest.mark.parametrize("module", ["extballs", "extballs.domains",
                                    "extballs.functionals",
                                    "extballs.verdicts", "extballs.pipeline"])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
