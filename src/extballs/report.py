"""Report artifacts: per-radius CSV series and a JSON verdict report.

Artifacts are deterministic functions of the run configuration: no
timestamps, no machine identifiers, full float precision.  A rerun with
the same config produces byte-identical files, so reports can be diffed
and attached to the configs that made them.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from . import __version__
from .functionals import RadiusRecord, RadiusSeries
from .verdicts import VerdictReport

SCHEMA_VERSION = 1


def write_series_csv(path: str | Path, series: RadiusSeries) -> Path:
    """Write one row per scheduled radius; not-applicable cells are nan.

    Every row has the columns of `RadiusRecord.as_dict`, in its order.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(RadiusRecord(t=math.nan).as_dict()))
        for rec in series.records:
            writer.writerow([_cell(v) for v in rec.as_dict().values()])
    return path


def _cell(value):
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    if value is None:
        return ""
    return value


def _jsonable(value):
    """Strict-JSON image of a value: non-finite floats become null."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_jsonable(v) for v in value]
    return value


def report_document(report: VerdictReport, config_doc: dict | None) -> dict:
    return _jsonable({
        "schema_version": SCHEMA_VERSION,
        "generator": {"package": "extballs", "version": __version__},
        "config": config_doc,
        "report": report.as_dict(),
    })


def write_report_json(path: str | Path, report: VerdictReport,
                      config_doc: dict | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = report_document(report, config_doc)
    path.write_text(json.dumps(doc, indent=2, allow_nan=False,
                               sort_keys=False) + "\n", encoding="utf-8")
    return path


def verdict_lines(report: VerdictReport) -> list:
    """Human-readable one-line-per-verdict summary for terminal output."""
    lines = [f"surface {report.surface} ({report.ambient}); "
             f"chi={report.chi} sup_growth={report.sup_growth:.6f} "
             f"R_end={report.R_end:.6f}"]
    for t, note in report.skipped:
        lines.append(f"  skip t={t:.6f}  ({note})")
    for v in report.verdicts:
        if not v.applicable:
            flag = " n/a"
        elif v.passed:
            flag = "PASS"
        else:
            flag = "FAIL" if v.gating else "warn"
        margin = "" if math.isnan(v.margin) else f" margin {v.margin:+.3e}"
        detail = f"  ({v.detail})" if v.detail else ""
        lines.append(f"  {flag} {v.name}{margin}{detail}")
    lines.append(f"exit status {report.exit_status}")
    return lines
