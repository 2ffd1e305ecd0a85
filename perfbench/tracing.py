"""Layer spans recorded from outside the program.

The benchmark never edits extballs.  It wraps public functions by the
name under which a calling module holds them (``extballs.pipeline``'s
``build_field``, ``extballs.domains.balls``'s ``frames``, ...), so a span
measures exactly the calls that caller makes.  Spans stay in memory and
are summarised, and optionally written out, when the round ends.

A target that no longer exists (a layer a refactor deleted or renamed)
is recorded as absent and its metrics read 0; it never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple

import numpy as np

# Modules that call immersion.frames, by the caller name metrics use.
FRAME_CALLERS = {
    "field": "extballs.domains.field",
    "quadrature": "extballs.domains.quadrature",
    "contours": "extballs.domains.contours",
    "balls": "extballs.domains.balls",
    "functionals": "extballs.functionals",
}


class Hook(NamedTuple):
    layer: str                      # span name; metrics derive from it
    target: str                     # "module:attr" or "module:Class.attr"
    count: Callable | None = None   # (args, result) -> {counter: amount}
    tag: Callable | None = None     # (args) -> label kept on the span
    cpu: bool = False               # also accumulate process CPU time


def _points(index):
    return lambda args, result: {"points": int(np.size(args[index]))}


def _run_counts(args, result):
    records = result.series.records
    return {"radii": len(records),
            "radii_skipped": sum(1 for rec in records if rec.skipped)}


def _cached_cells(args, result):
    return {"cells": int(np.count_nonzero(next(iter(result.values()))))}


def _file_bytes(args, result):
    return {"bytes": result.stat().st_size}


HOOKS = (
    Hook("config.load", "extballs.config:RunConfig.from_json"),
    Hook("pipeline.run_surface", "extballs.cli:run_surface",
         count=_run_counts, tag=lambda args: args[0], cpu=True),
    Hook("catalog.surface_build", "extballs.catalog:CatalogEntry.surface"),
    Hook("catalog.profile_jets",
         "extballs.catalog.profiles:RotationProfile.jets", count=_points(1)),
    Hook("field.build_field", "extballs.pipeline:build_field"),
    Hook("field.critical_scan", "extballs.pipeline:critical_scan"),
    Hook("quadrature.cell_cache", "extballs.pipeline:ensure_cell_cache",
         count=_cached_cells),
    Hook("balls.extract_ball", "extballs.pipeline:extract_ball",
         count=lambda args, result: {"samples": len(result.samples)}),
    Hook("contours.extract_loops", "extballs.domains.balls:extract_loops",
         count=lambda args, result: {"loops": len(result)}),
    Hook("contours.augment_loop", "extballs.domains.balls:augment_loop",
         count=lambda args, result: {"vertices": len(result.vertices)}),
    Hook("quadrature.region_integral",
         "extballs.domains.balls:region_integral"),
    Hook("quadrature.cut_cells",
         "extballs.domains.quadrature:integrate_cut_cells",
         count=lambda args, result: {"cells": len(args[2])}),
    Hook("functionals.kg_gap", "extballs.pipeline:kg_gap"),
    Hook("functionals.kg_direct",
         "extballs.functionals:geodesic_curvature_direct",
         count=lambda args, result: {"samples": len(result)}),
    Hook("functionals.kg_formula",
         "extballs.functionals:geodesic_curvature_formula"),
    Hook("verdicts.per_radius", "extballs.pipeline:growth_ratio"),
    Hook("verdicts.per_radius", "extballs.pipeline:isoperimetric_check"),
    Hook("verdicts.per_radius", "extballs.pipeline:gb_integrand"),
    Hook("verdicts.build_verdicts", "extballs.pipeline:build_verdicts"),
    Hook("report.write", "extballs.cli:write_series_csv", count=_file_bytes),
    Hook("report.write", "extballs.cli:write_report_json",
         count=_file_bytes),
    Hook("backend.get_kernels", "extballs.backend:get_kernels"),
    Hook("space_forms.distance", "extballs.space_forms:SpaceForm.distance"),
) + tuple(
    Hook(f"immersion.frames.{caller}", f"{module}:frames", count=_points(1))
    for caller, module in FRAME_CALLERS.items()
)


def _resolve(target: str):
    """(owner, attribute name, raw attribute) or None when absent."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if raw is None or not callable(getattr(owner, attr)):
        return None
    return owner, attr, raw


class Tracer:
    """In-memory span recorder.

    A span is (id, parent id, layer, tag, thread, start, end); the parent
    is the innermost open span of the same thread, or -1.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self, hooks=HOOKS) -> None:
        for hook in hooks:
            found = _resolve(hook.target)
            if found is None:
                self.absent.append(hook.target)
                continue
            owner, attr, raw = found
            if isinstance(raw, staticmethod):
                setattr(owner, attr,
                        staticmethod(self._wrap(raw.__func__, hook)))
            else:
                setattr(owner, attr, self._wrap(raw, hook))

    def _wrap(self, fn, hook: Hook):
        spans, counts, local, lock = (self.spans, self.counts, self._local,
                                      self._lock)
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            cpu0 = time.process_time() if hook.cpu else 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, hook.layer,
                              hook.tag(args) if hook.tag else "",
                              threading.get_ident(), start, end))
            extra = hook.count(args, result) if hook.count else {}
            if hook.cpu:
                extra["cpu_s"] = time.process_time() - cpu0
            if extra:
                with lock:
                    for key, amount in extra.items():
                        counts[f"{hook.layer}.{key}"] += amount
            return result

        return traced

    def summary(self, main_thread: int, wall: float) -> dict:
        """Per-layer calls, inclusive and self time, plus accounting.

        Self time is a span's duration minus its direct children's, which
        share its thread by construction.  Busy time is the main thread's
        round wall plus, for every other thread, the time inside that
        thread's top-level spans (pool workers are busy only there).  The
        self times sum to busy time less the main-thread time no layer
        span covers, so their gap measures what the hooks miss.
        """
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, *_rest, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        tagged: dict[str, float] = defaultdict(float)
        worker_top = self_sum = 0.0
        for sid, parent, layer, tag, thread, start, end in self.spans:
            dur = end - start
            own = dur - child_time[sid]
            entry = layers[layer]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += own
            self_sum += own
            if tag:
                tagged[f"{layer}.{tag}"] += dur
            if parent < 0 and thread != main_thread:
                worker_top += dur
        return {
            "layers": dict(layers),
            "counts": dict(self.counts),
            "tagged_s": dict(tagged),
            "absent": list(self.absent),
            "spans": len(self.spans),
            "wall_s": wall,
            "busy_s": wall + worker_top,
            "self_sum_s": self_sum,
        }

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\ttag\tthread\tstart\tend\n")
            for span in self.spans:
                fh.write("\t".join(str(x) for x in span) + "\n")


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round, by their benchmark names.

    ``*_s`` is inclusive time summed over calls, except the two ``self_s``
    metrics; a layer whose hook is absent reads 0.
    """
    layers, counts = summary["layers"], summary["counts"]

    def total(layer):
        return layers.get(layer, {}).get("total_s", 0.0)

    def own(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    def count(key):
        return counts.get(key, 0)

    out = {
        "pipeline.run_surface_s": total("pipeline.run_surface"),
        "pipeline.self_s": own("pipeline.run_surface"),
        "pipeline.cpu_s": count("pipeline.run_surface.cpu_s"),
        "pipeline.radii": count("pipeline.run_surface.radii"),
        "pipeline.radii_skipped": count("pipeline.run_surface.radii_skipped"),
        "functionals.kg_gap_s": total("functionals.kg_gap"),
        "functionals.kg_direct_s": total("functionals.kg_direct"),
        "functionals.kg_formula_s": total("functionals.kg_formula"),
        "functionals.kg_samples": count("functionals.kg_direct.samples"),
        "catalog.surface_build_s": total("catalog.surface_build"),
        "catalog.profile_jets_calls": calls("catalog.profile_jets"),
        "catalog.profile_jets_points": count("catalog.profile_jets.points"),
        "catalog.profile_jets_s": total("catalog.profile_jets"),
        "backend.get_kernels_calls": calls("backend.get_kernels"),
        "backend.get_kernels_s": total("backend.get_kernels"),
        "space_forms.distance_calls": calls("space_forms.distance"),
        "space_forms.distance_s": total("space_forms.distance"),
        "quadrature.cell_cache_s": total("quadrature.cell_cache"),
        "quadrature.cached_cells": count("quadrature.cell_cache.cells"),
        "quadrature.region_integral_s": total("quadrature.region_integral"),
        "quadrature.cut_cells_s": total("quadrature.cut_cells"),
        "quadrature.cut_cells": count("quadrature.cut_cells.cells"),
        "field.build_field_s": total("field.build_field"),
        "field.critical_scan_s": total("field.critical_scan"),
        "contours.extract_loops_s": total("contours.extract_loops"),
        "contours.loops": count("contours.extract_loops.loops"),
        "contours.augment_loop_s": total("contours.augment_loop"),
        "contours.vertices": count("contours.augment_loop.vertices"),
        "balls.extract_ball_s": total("balls.extract_ball"),
        "balls.self_s": own("balls.extract_ball"),
        "balls.boundary_samples": count("balls.extract_ball.samples"),
        "verdicts.build_verdicts_s": total("verdicts.build_verdicts"),
        "verdicts.per_radius_s": total("verdicts.per_radius"),
        "config.load_s": total("config.load"),
        "report.write_s": total("report.write"),
        "report.bytes": count("report.write.bytes"),
    }
    for caller in FRAME_CALLERS:
        layer = f"immersion.frames.{caller}"
        out[f"immersion.frames_calls.{caller}"] = calls(layer)
        out[f"immersion.frame_points.{caller}"] = count(f"{layer}.points")
        out[f"immersion.frames_s.{caller}"] = total(layer)
    return out
