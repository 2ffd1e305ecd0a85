"""The benchmark's layer hooks resolve against the program.

``perfbench/tracing.py`` wraps program functions by ``module:attr`` name
and records a target it cannot find as absent, whose metrics then read
0 without failing the run.  These tests pin which targets are absent, so
a refactor that moves or deletes a hooked function fails here rather
than silently zeroing a per-layer metric, and apply the hooks' counters
to real results, so a changed return shape fails here too.
"""

import types
from pathlib import Path

import numpy as np
import pytest

from extballs import pipeline
from extballs.domains import GridSpec, build_field
from extballs.pipeline import ensure_cell_cache
from oracles import cell_cases, make

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Targets whose layers the program no longer has.
ABSENT = {
    "extballs.backend:get_kernels",
    "extballs.pipeline:kg_gap",
    "extballs.pipeline:growth_ratio",
    "extballs.pipeline:isoperimetric_check",
    "extballs.pipeline:gb_integrand",
    "extballs.domains.field:frames",
    "extballs.domains.contours:frames",
    "extballs.functionals:frames",
    "extballs.functionals:geodesic_curvature_direct",
    "extballs.domains.balls:extract_loops",
    "extballs.domains.balls:augment_loop",
}


@pytest.fixture(scope="module")
def tracing():
    # Executed from its source text, so nothing is written beside it.
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def test_absent_hooks(tracing):
    absent = {hook.target for hook in tracing.HOOKS
              if tracing._resolve(hook.target) is None}
    assert absent == ABSENT


def test_cell_cache_count_reads_the_area_channel(tracing):
    surface = make("plane", t_max=2.0)
    field = build_field(surface, 2.0, spec=GridSpec(64, 64))
    cache = ensure_cell_cache(field)
    name, first = next(iter(cache.items()))
    assert name == "one"
    assert np.count_nonzero(first) > 0
    assert np.all(first >= 0.0)
    count = tracing._cached_cells((field,), cache)["cells"]
    assert count == np.count_nonzero(first)


def test_ball_hook_counts_match_the_ball(tracing, monkeypatch):
    # Each per-radius hook's count, applied to the real calls of one ball
    # extraction, must read the ball's samples and cut cells; a changed
    # return shape fails here, not in a traced round.
    layers = ("balls.extract_ball", "quadrature.cut_cells")
    hooks = {hook.layer: hook for hook in tracing.HOOKS
             if hook.layer in layers}
    assert set(hooks) == set(layers)
    calls = {layer: [] for layer in layers}
    for layer, hook in hooks.items():
        owner, attr, raw = tracing._resolve(hook.target)

        def record(*args, _fn=raw, _calls=calls[layer]):
            result = _fn(*args)
            _calls.append((args, result))
            return result

        monkeypatch.setattr(owner, attr, record)

    field = build_field(make("catenoid", t_max=6.0), 6.0,
                        spec=GridSpec(96, 96))
    ball = pipeline.extract_ball(field, 5.0)

    def count(layer, key):
        return sum(hooks[layer].count(args, result)[key]
                   for args, result in calls[layer])

    tt = calls["quadrature.cut_cells"][0][0][1]
    cases = cell_cases(field.r, tt, field.periodic_u)
    assert ball.n_components == 2
    assert count("balls.extract_ball", "samples") == len(ball.samples)
    assert count("quadrature.cut_cells", "cells") == np.count_nonzero(
        (cases > 0) & (cases < 15))
