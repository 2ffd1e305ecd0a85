"""tools/report_diff.py tells identical runs from changed ones."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "tools" / "report_diff.py"


def _diff(old, new):
    proc = subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout


def _copies(tmp_path):
    for side in ("old", "new"):
        shutil.copytree(ROOT / "out" / "quick", tmp_path / side / "quick")
    return tmp_path / "old", tmp_path / "new"


def _edit_report(run, edit):
    path = run / "report.json"
    doc = json.loads(path.read_text())
    edit(doc["report"])
    path.write_text(json.dumps(doc, indent=2))


def test_copies_are_identical(tmp_path):
    old, new = _copies(tmp_path)
    assert _diff(old, new) == (0, "quick: identical\n")
    assert _diff(old / "quick", new / "quick") == (0, "quick: identical\n")


def test_changed_number_is_reported(tmp_path):
    old, new = _copies(tmp_path)

    def edit(rep):
        rep["R_end"] *= 1.0 + 1e-9

    _edit_report(new / "quick", edit)
    code, out = _diff(old, new)
    assert code == 0
    assert "exit status 0 matches" in out
    assert "verdict flags match" in out
    assert "largest change report.json.report.R_end" in out
    assert "(rel 1.00e-09)" in out


def test_changed_series_cell_is_reported(tmp_path):
    old, new = _copies(tmp_path)
    path = new / "quick" / "series.csv"
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[1].split(",")
    col = lines[0].split(",").index("intK")
    cells[col] = repr(float(cells[col]) + 2e-6)
    lines[1] = ",".join(cells)
    path.write_text("".join(lines))
    code, out = _diff(old, new)
    assert code == 0
    assert "largest change series.csv[0].intK" in out


def test_changed_verdict_flag_fails(tmp_path):
    old, new = _copies(tmp_path)

    def edit(rep):
        rep["verdicts"][0]["passed"] = not rep["verdicts"][0]["passed"]

    _edit_report(new / "quick", edit)
    code, out = _diff(old, new)
    assert code == 1
    assert "verdict flags differ: minimality_oracle" in out


def test_missing_run_fails(tmp_path):
    old, new = _copies(tmp_path)
    shutil.copytree(old / "quick", old / "extra")
    code, out = _diff(old, new)
    assert code == 1
    assert "extra: missing in NEW" in out


def test_fields_on_one_side_are_added_or_removed(tmp_path):
    old, new = _copies(tmp_path)
    _edit_report(new / "quick", lambda rep: rep.pop("G_b_spread"))
    path = new / "quick" / "series.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0] + ",extra"]
                              + [line + ",1.0" for line in lines[1:]]) + "\n")
    code, out = _diff(old, new)
    assert code == 0
    assert f"added series.csv[*].extra ({len(lines) - 1})" in out
    assert "removed report.json.report.G_b_spread" in out
    assert "non-numeric" not in out


def test_every_changed_field_gets_a_line(tmp_path):
    old, new = _copies(tmp_path)

    def edit(rep):
        rep["R_end"] *= 1.0 + 1e-9
        rep["sup_growth"] *= 1.0 + 1e-6

    _edit_report(new / "quick", edit)
    path = new / "quick" / "series.csv"
    lines = path.read_text().splitlines(keepends=True)
    col = lines[0].split(",").index("area")
    for row, factor in ((1, 1.0 + 1e-12), (2, 1.0 + 1e-10)):
        cells = lines[row].split(",")
        cells[col] = repr(float(cells[col]) * factor)
        lines[row] = ",".join(cells)
    path.write_text("".join(lines))
    code, out = _diff(old, new)
    assert code == 0
    first, *fields = out.splitlines()
    assert first.startswith("quick: exit status 0 matches; ")
    assert "largest change report.json.report.sup_growth" in first
    # One line per field, largest first; the two area rows are pooled.
    names = [line.split()[0] for line in fields]
    assert all(line.startswith("    ") for line in fields)
    assert names == ["report.json.report.sup_growth",
                     "report.json.report.R_end", "series.csv[*].area"]
    assert fields[2].endswith("rel 1.00e-10")
