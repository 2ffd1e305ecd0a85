"""Known faults, pinned as strict xfails until their ROADMAP item lands.

Each test states the correct outcome.  It fails today; when a fix makes
it pass, the strict marker turns that into a failure, so the marker must
be removed together with the fault.
"""

import pytest

from extballs.pipeline import run_surface


def test_hyperbolic_catenoid_r0_at_256():
    res = run_surface("hyperbolic_catenoid", grid=(256, 256))
    assert 1.40 <= res.series.R0 <= 1.50


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 4: the k_g trace step 1.5*max(h_u, h_v) is tied to the "
    "grid and exceeds the radius of a tiny ball (gap 1.51e-3 at t = 0.01)"))
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
