"""tools/unreached.py lists the package functions a run never calls."""

import importlib.util
from pathlib import Path

from extballs import immersion

ROOT = Path(__file__).resolve().parents[1]


def _load(relpath, name):
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


unreached = _load("tools/unreached.py", "_unreached")
report_runs = _load("tools/report_runs.py", "_report_runs")


def _names(seen):
    return {line.split()[1] for line in unreached.unreached_lines(seen)}


def test_below_resolution_run_leaves_test_only_code_unreached(tmp_path):
    seen = unreached.reached(lambda: report_runs.write_run(
        tmp_path, report_runs.BELOW_RESOLUTION))
    names = _names(seen)
    assert {"_node_on_pole", "_terminal_polygon"} <= names
    assert not {"run_surface", "build_field", "extract_ball", "batch_map",
                "geodesic_curvature_hessian",
                "write_report_json"} & names


def test_calls_inside_map_items_are_reached(monkeypatch):
    # The work runs on one worker, so the items of a map that would fork
    # on two CPUs run, and are seen, in this process; the worker count is
    # restored afterwards.
    monkeypatch.setattr(immersion, "_WORKERS", 2)

    def work():
        immersion.batch_map(lambda _: immersion._cpu_count(), range(2))

    names = _names(unreached.reached(work))
    assert not {"_cpu_count", "batch_map"} & names
    assert "_child" in names
    assert immersion._WORKERS == 2
