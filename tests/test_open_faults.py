"""Faults once pinned as strict xfails, kept as regression tests.

Each test states the correct outcome.  While a fault was open its test
carried a strict xfail marker, which turned a fix into a failure, so the
marker went together with the fault.
"""

import pytest

from extballs.pipeline import run_surface


@pytest.fixture(scope="module")
def hyperbolic_catenoid_256():
    return run_surface("hyperbolic_catenoid", grid=(256, 256))


def test_hyperbolic_catenoid_r0_at_256(hyperbolic_catenoid_256):
    assert 1.40 <= hyperbolic_catenoid_256.series.R0 <= 1.50


def test_hyperbolic_catenoid_kg_gap_at_256(hyperbolic_catenoid_256):
    # The boundary-marching trace read 9.96e-5 at t = 0.5641 here.
    res = hyperbolic_catenoid_256
    assert res.report.exit_status == 0
    assert all(rec.kg_gap_max <= 1e-6 for rec in res.series.valid)


def test_hyperbolic_catenoid_exits_0_at_128():
    # A stencil of a quarter grid step read 1.18e-5 at t = 0.5 here.
    res = run_surface("hyperbolic_catenoid", grid=(128, 128))
    assert res.report.exit_status == 0
    assert all(rec.kg_gap_max <= 1e-6 for rec in res.series.valid)


def test_h2_in_h3_kg_gap_does_not_grow_under_refinement():
    # A stencil step tied to the grid read 3.4e-8, 1.0e-7 and 2.0e-7.
    gaps = [max(rec.kg_gap_max for rec in
                run_surface("h2_in_h3", grid=(n, n)).series.valid)
            for n in (256, 512, 1024)]
    assert max(gaps[1:]) <= gaps[0] <= 5e-9, gaps


def test_h2_in_h3_tiny_balls_kg_gap():
    res = run_surface("h2_in_h3", grid=(512, 512), t_min=0.01, t_max=0.02,
                      count=2)
    assert all(rec.kg_gap_max <= 1e-5 for rec in res.series.records)


def test_catenoid_saddle_radius_is_skipped():
    res = run_surface("catenoid", grid=(256, 256), t_min=1.0, t_max=4.0,
                      count=3)
    saddle = [rec for rec in res.series.records
              if abs(rec.t - 2.0) < 1e-12]
    assert len(saddle) == 1 and saddle[0].skipped
