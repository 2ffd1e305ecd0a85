"""Correctness checks on one run's ``series.csv`` and ``report.json``.

No check compares against stored output of an earlier version.  Each is
a closed form of the surface or a property the method must have; the
tolerances leave 10-100x headroom over the worst error measured at 512^2.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Run

AREA_REL = 1e-8      # measured <= 5e-10
LENGTH_REL = 2e-7    # measured <= 2e-8
CHI_TOL = 1e-3       # measured <= 6e-5 past R0
R_SLACK = 1e-5       # the program's own R monotonicity slack
RATIO_TOL = 1e-8     # ratio >= 1 and nondecreasing; jitter <= 2e-10
KG_GAP = 1e-5        # the program's kg_gap tolerance, not widened
GB_ZERO = 1e-3       # |G_b| on the totally geodesic plane; measured 8e-6

# Euler characteristic of each catalog surface (the sphere control is a cap).
CHI = {"plane": 1, "catenoid": 0, "enneper": 1, "helicoid": 1,
       "h2_in_h3": 1, "hyperbolic_catenoid": 0, "sphere_control": 1}
MINIMAL = set(CHI) - {"sphere_control"}
R_BELOW_8PI = {"catenoid", "enneper"}

# Ball area and boundary length at radius t, exact.
CLOSED_FORMS = {
    "plane": (lambda t: math.pi * t * t, lambda t: 2.0 * math.pi * t),
    "sphere_control": (
        lambda t: math.pi * t * t,
        lambda t: 2.0 * math.pi * t * math.sqrt(1.0 - t * t / 4.0)),
    "h2_in_h3": (lambda t: 2.0 * math.pi * (math.cosh(t) - 1.0),
                 lambda t: 2.0 * math.pi * math.sinh(t)),
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: dict = field(default_factory=dict)    # t -> failed check names
    problems: list = field(default_factory=list)  # unexpected failures
    kg_misses: list = field(default_factory=list)  # (t, gap), not gated


def _rel(value: float, exact: float) -> float:
    return abs(value / exact - 1.0)


def check_run(run: Run, out_dir: Path, status: int) -> Outcome:
    """Check one report; ``status`` is the CLI's return value."""
    surface = run.config["surface"]
    try:
        with open(out_dir / "series.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        report = json.loads((out_dir / "report.json").read_text())["report"]
    except FileNotFoundError:
        return Outcome(attempted=1, failed={math.nan: ["no_report"]},
                       problems=[f"{run.label}: no report (exit {status})"])
    res = Outcome(attempted=len(rows))

    R0 = report["R0"]
    prev = None
    for row in rows:
        t = float(row["t"])
        if row["skipped"] == "true":
            continue
        v = {k: float(row[k]) for k in
             ("area", "length", "R", "chi_hat", "ratio", "kg_gap_max")}
        bad = [k for k, x in v.items() if not math.isfinite(x)]
        if surface in CLOSED_FORMS:
            area, length = CLOSED_FORMS[surface]
            if _rel(v["area"], area(t)) > AREA_REL:
                bad.append("area_closed_form")
            if _rel(v["length"], length(t)) > LENGTH_REL:
                bad.append("length_closed_form")
        if t > R0 and abs(v["chi_hat"] - CHI[surface]) > CHI_TOL:
            bad.append("chi_plateau")
        if prev is not None and v["R"] < prev["R"] - R_SLACK:
            bad.append("R_nondecreasing")
        if surface in R_BELOW_8PI and v["R"] >= 8.0 * math.pi:
            bad.append("R_below_8pi")
        if surface in MINIMAL:
            if v["ratio"] < 1.0 - RATIO_TOL:
                bad.append("ratio_at_least_1")
            if prev is not None and v["ratio"] < prev["ratio"] - RATIO_TOL:
                bad.append("ratio_nondecreasing")
        if v["kg_gap_max"] > KG_GAP:
            if run.kg_checked:
                bad.append("kg_gap")
            else:
                res.kg_misses.append((t, v["kg_gap_max"]))
        if bad:
            res.failed[t] = bad
            if not (run.known_fault and bad == ["kg_gap"]):
                res.problems.append(f"{run.label}: t={t!r} failed {bad}")
        prev = v

    missed_kg = bool(res.kg_misses) or any(
        "kg_gap" in bad for bad in res.failed.values())
    if surface == "helicoid":
        expected = 2
        if report["hypothesis_violated"] is not True:
            res.problems.append(f"{run.label}: hypothesis not flagged")
    else:
        # A k_g miss fails the gating kg_identity verdict, hence exit 1.
        expected = 1 if missed_kg else 0
    if status != expected or report["exit_status"] != status:
        res.problems.append(
            f"{run.label}: exit {status} (report {report['exit_status']}), "
            f"expected {expected}")
    gb = report.get("G_b")
    if surface == "hyperbolic_catenoid" and not (gb is not None and gb > 0):
        res.problems.append(f"{run.label}: G_b = {gb}, expected > 0")
    if surface == "h2_in_h3" and not (gb is not None and abs(gb) <= GB_ZERO):
        res.problems.append(f"{run.label}: G_b = {gb}, expected ~0")
    return res
