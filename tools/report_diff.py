"""Compare the report directories of two runs of the same configs.

    python3 tools/report_diff.py OLD_DIR NEW_DIR

A run directory holds the ``report.json`` and ``series.csv`` that
``extballs report`` writes.  OLD_DIR and NEW_DIR either are run
directories themselves or hold run directories below them, matched by
their path under the root.  For each run this prints one line: either
``identical`` (both files byte-equal), or whether the exit status and
every verdict's ``applicable``/``passed`` flags match, plus the field
that moved most, the fields present on one side only (added or removed,
list indices starred and counted) and the count of other non-numeric
fields that differ.  A number's change is relative where |old| > 1e-3
and absolute otherwise.  Below that line, one indented line per changed
numeric field gives its largest change, with list indices starred (so a
``series.csv`` column is pooled over its rows), largest first.

Exits 1 when any exit status or verdict flag differs, or a run is
missing on one side; 0 otherwise.  Standard library only.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from collections import Counter
from pathlib import Path

_REL_FLOOR = 1e-3
_FILES = ("report.json", "series.csv")


def _runs(root: Path) -> dict[str, Path]:
    """Run directories under root, keyed by their path relative to it."""
    return {str(p.parent.relative_to(root)): p.parent
            for p in sorted(root.rglob("report.json"))}


def _number(x):
    """x as a float if it is a number (a CSV cell may be one), else None."""
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def _change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return math.inf
    if abs(a) > _REL_FLOOR:
        return abs(b - a) / abs(a)
    return abs(b - a)


def _kind(old: float) -> str:
    return "rel" if abs(old) > _REL_FLOOR else "abs"


def _leaves(obj, path: str):
    """(path, value) of every scalar in a JSON value; verdicts by name."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaves(val, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            tag = val["name"] if isinstance(val, dict) and "name" in val else i
            yield from _leaves(val, f"{path}[{tag}]")
    else:
        yield path, obj


def _series_leaves(path: Path):
    if not path.exists():
        return
    with path.open(newline="") as fh:
        for i, row in enumerate(csv.DictReader(fh)):
            for key, val in row.items():
                yield f"series.csv[{i}].{key}", val


def _grouped(keys: list[str]) -> str:
    """Leaf paths with list indices starred, each with its count."""
    counts = Counter(_starred(key) for key in keys)
    return ", ".join(f"{p} ({n})" if n > 1 else p for p, n in counts.items())


def _starred(key: str) -> str:
    return re.sub(r"\[\d+\]", "[*]", key)


def _flags(report: dict) -> dict:
    return {v["name"]: (v["applicable"], v["passed"])
            for v in report["report"]["verdicts"]}


def compare_run(old: Path, new: Path) -> tuple[str, bool]:
    """A run's summary and field lines, and whether its verdicts match."""
    if all((old / f).exists() == (new / f).exists()
           and (not (old / f).exists()
                or (old / f).read_bytes() == (new / f).read_bytes())
           for f in _FILES):
        return "identical", True

    rep_old = json.loads((old / "report.json").read_text())
    rep_new = json.loads((new / "report.json").read_text())
    exit_old = rep_old["report"]["exit_status"]
    exit_new = rep_new["report"]["exit_status"]
    flags_old, flags_new = _flags(rep_old), _flags(rep_new)
    moved = sorted(name for name in flags_old.keys() | flags_new.keys()
                   if flags_old.get(name) != flags_new.get(name))
    same = exit_old == exit_new and not moved

    parts = [f"exit status {exit_old} -> {exit_new}"
             if exit_old != exit_new else f"exit status {exit_old} matches"]
    parts.append("verdict flags differ: " + ", ".join(moved) if moved
                 else "verdict flags match")

    old_leaves = dict(_leaves(rep_old, "report.json"))
    old_leaves.update(_series_leaves(old / "series.csv"))
    new_leaves = dict(_leaves(rep_new, "report.json"))
    new_leaves.update(_series_leaves(new / "series.csv"))
    by_field: dict[str, tuple[float, str]] = {}
    added = sorted(new_leaves.keys() - old_leaves.keys())
    removed = sorted(old_leaves.keys() - new_leaves.keys())
    other = []
    for key in sorted(old_leaves.keys() & new_leaves.keys()):
        a, b = old_leaves[key], new_leaves[key]
        if a == b:
            continue
        na, nb = _number(a), _number(b)
        if na is None or nb is None:
            other.append(key)
            continue
        change = _change(na, nb)
        field = _starred(key)
        if change > by_field.get(field, (0.0,))[0]:
            by_field[field] = (change, key)
    # Largest first; on a tie, the field whose first row sorts first.
    ranked = sorted(by_field.items(), key=lambda item: -item[1][0])
    if ranked:
        change, key = ranked[0][1]
        kind = _kind(_number(old_leaves[key]))
        parts.append(f"largest change {key} {old_leaves[key]} -> "
                     f"{new_leaves[key]} ({kind} {change:.2e})")
    if added:
        parts.append(f"added {_grouped(added)}")
    if removed:
        parts.append(f"removed {_grouped(removed)}")
    if other:
        parts.append(f"{len(other)} non-numeric field(s) differ, "
                     f"first {other[0]}")
    fields = [f"    {field} {_kind(_number(old_leaves[key]))} {change:.2e}"
              for field, (change, key) in ranked]
    return "\n".join(["; ".join(parts)] + fields), same


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    old_root, new_root = Path(argv[0]), Path(argv[1])
    old_runs, new_runs = _runs(old_root), _runs(new_root)
    if not old_runs and not new_runs:
        print(f"no report.json under {old_root} or {new_root}",
              file=sys.stderr)
        return 2
    status = 0
    for name in sorted(old_runs.keys() | new_runs.keys()):
        if name not in new_runs or name not in old_runs:
            side = "NEW" if name not in new_runs else "OLD"
            print(f"{name}: missing in {side}")
            status = 1
            continue
        line, same = compare_run(old_runs[name], new_runs[name])
        print(f"{new_runs[name].name if name == '.' else name}: {line}")
        if not same:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
