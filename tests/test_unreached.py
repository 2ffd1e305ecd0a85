"""tools/unreached.py lists the package functions a run never calls."""

import importlib.util
import threading
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


def test_below_resolution_run_leaves_test_only_code_unreached(
        tmp_path, monkeypatch):
    # Fresh helper threads, started under the hook; the test drops them.
    monkeypatch.setattr(immersion, "_EXECUTOR", None)
    seen = unreached.reached(lambda: report_runs.write_run(
        tmp_path, report_runs.BELOW_RESOLUTION))
    names = _names(seen)
    assert {"_node_on_pole", "_terminal_polygon"} <= names
    assert not {"run_surface", "build_field", "extract_ball", "batch_map",
                "geodesic_curvature_hessian",
                "write_report_json"} & names


def test_calls_on_other_threads_are_reached():
    thread = threading.Thread(target=immersion._cpu_count)

    def work():
        thread.start()
        thread.join(timeout=10)

    names = _names(unreached.reached(work))
    assert not thread.is_alive()
    assert "_cpu_count" not in names
    assert "batch_map" in names
