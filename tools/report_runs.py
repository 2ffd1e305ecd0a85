"""Write the reference report runs of this checkout into one directory.

    python3 tools/report_runs.py OUT_DIR

Runs ``extballs report`` (through ``extballs.cli.main``, on the package
in this checkout's ``src``) for sixteen reference runs, one directory
each under OUT_DIR:

- ``configs/<name>``: every ``configs/*.json``;
- ``catalog/<surface>``: every catalog surface at catalog defaults
  (the config ``{"surface": <surface>}``);
- ``kg_sentinel``: ``KG_SENTINEL`` from ``perfbench/workloads.py``;
- ``below_resolution``: ``BELOW_RESOLUTION``, whose first radii hold no
  grid node and are recorded as skipped;
- ``critical_skip``: ``CRITICAL_SKIP``, whose middle radius is the
  catenoid's saddle level 2 and is recorded as skipped;
- ``off_mirrors``: ``OFF_MIRRORS``, whose pole neither chart mirror
  fixes, so its cut-cell quadrature integrates every cut cell.

Each directory gets the ``config.json`` it ran, its ``report.json`` and
``series.csv``, and ``exit_status`` holds every run's exit status.
Compare two such directories with ``tools/report_diff.py``.  Exits 1
when a run raises, 0 otherwise (a run's own exit status is recorded,
not propagated).
"""

from __future__ import annotations

import importlib.util
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from extballs.catalog import list_entries  # noqa: E402
from extballs.cli import main as cli_main  # noqa: E402

# A 64^2 plane whose nearest node sits at r = 0.055: the radii 0.001 and
# 0.0447 hold no node and take the skip path.
BELOW_RESOLUTION = {"surface": "plane", "grid": 64,
                    "schedule": {"t_min": 0.001, "t_max": 2, "count": 3}}

# A 256^2 catenoid scheduled at t = 1, 2, 4: t = 2 is the level of the
# saddle opposite the pole and takes the critical-value skip path.
CRITICAL_SKIP = {"surface": "catenoid", "grid": 256,
                 "schedule": {"t_min": 1, "t_max": 4, "count": 3}}

# A 256^2 catenoid about the chart point (1, 0.5), off both of the
# chart's mirrors (u = 0 or pi, v = 0); every other run's pole is on
# v = 0.
OFF_MIRRORS = {"surface": "catenoid", "grid": 256, "pole": [1.0, 0.5],
               "schedule": {"t_min": 0.5, "t_max": 4, "count": 6}}


def _sentinel() -> dict:
    """``KG_SENTINEL`` read from perfbench/workloads.py by file path."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.KG_SENTINEL


def reference_runs() -> dict[str, dict]:
    """Run directory name -> config document, in run order."""
    runs = {f"configs/{p.stem}": json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((ROOT / "configs").glob("*.json"))}
    runs.update((f"catalog/{e['name']}", {"surface": e["name"]})
                for e in list_entries())
    runs["kg_sentinel"] = _sentinel()
    runs["below_resolution"] = BELOW_RESOLUTION
    runs["critical_skip"] = CRITICAL_SKIP
    runs["off_mirrors"] = OFF_MIRRORS
    return runs


def write_run(run_dir: Path, doc: dict) -> int:
    """Write ``doc`` as run_dir/config.json and report it into run_dir."""
    run_dir.mkdir(parents=True, exist_ok=True)
    config = run_dir / "config.json"
    config.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return cli_main(["report", str(config), "--out", str(run_dir),
                     "--quiet"])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: report_runs.py OUT_DIR", file=sys.stderr)
        return 2
    out_root = Path(argv[0])
    statuses = {}
    crashed = False
    for name, doc in reference_runs().items():
        try:
            status = write_run(out_root / name, doc)
        except Exception:  # noqa: BLE001 - record the crash, keep going
            traceback.print_exc()
            status = "raised"
            crashed = True
        statuses[name] = status
        print(f"{name}: exit {status}")
    (out_root / "exit_status").write_text(
        json.dumps(statuses, indent=2) + "\n", encoding="utf-8")
    return 1 if crashed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
