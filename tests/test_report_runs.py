"""tools/report_runs.py writes the sixteen reference runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(relpath, name):
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_runs = _load("tools/report_runs.py", "_report_runs")


def test_reference_runs_are_configs_catalog_and_sentinel():
    runs = report_runs.reference_runs()
    configs = sorted(p.stem for p in (ROOT / "configs").glob("*.json"))
    assert [n for n in runs if n.startswith("configs/")] == \
        [f"configs/{stem}" for stem in configs]
    catalog = [n for n in runs if n.startswith("catalog/")]
    assert len(catalog) == 7
    assert all(runs[n] == {"surface": n.split("/")[1]} for n in catalog)
    sentinel = _load("perfbench/workloads.py", "_workloads").KG_SENTINEL
    assert runs["kg_sentinel"] == sentinel
    assert runs["off_mirrors"]["pole"] == [1.0, 0.5]
    assert len(runs) == len(configs) + 11


def test_quick_run_matches_committed_artifacts(tmp_path):
    doc = json.loads((ROOT / "configs" / "quick.json").read_text())
    assert report_runs.write_run(tmp_path / "quick", doc) == 0
    assert json.loads((tmp_path / "quick" / "config.json").read_text()) \
        == doc
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_diff.py"),
         str(ROOT / "out" / "quick"), str(tmp_path / "quick")],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "quick: identical\n")
