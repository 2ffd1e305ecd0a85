"""End-to-end CLI tests: exit codes, artifacts, and sweep aggregation.

Runs use deliberately small grids and short schedules so the whole file
stays fast; the full-resolution runs live in the acceptance suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from extballs.cli import main
from oracles import read_report_json

ROOT = Path(__file__).resolve().parents[1]


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture()
def plane_config(tmp_path):
    return _write(tmp_path, "plane.json", {
        "surface": "plane",
        "schedule": {"t_min": 0.5, "t_max": 2.0, "count": 3},
        "grid": 64,
    })


def test_catalog_list(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("plane", "catenoid", "enneper", "helicoid", "h2_in_h3",
                 "hyperbolic_catenoid", "sphere_control"):
        assert name in out


def test_report_writes_artifacts(plane_config, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["report", plane_config, "--out", str(out_dir)]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "exit status 0" in text
    assert (out_dir / "series.csv").exists()
    doc = read_report_json(out_dir / "report.json")
    assert doc["report"]["surface"] == "plane"
    assert doc["report"]["exit_status"] == 0
    assert doc["config"]["surface"] == "plane"
    # csv has a header plus one row per scheduled radius
    lines = (out_dir / "series.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3


def test_quick_config_reproduces_committed_artifacts(tmp_path):
    root = Path(__file__).resolve().parents[1]
    assert main(["report", str(root / "configs" / "quick.json"),
                 "--out", str(tmp_path), "--quiet"]) == 0
    for name in ("report.json", "series.csv"):
        assert ((tmp_path / name).read_bytes()
                == (root / "out" / "quick" / name).read_bytes()), name


def test_report_quiet(plane_config, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["report", plane_config, "--out", str(out_dir),
                 "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_report_missing_config(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_report_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"surface": ', encoding="utf-8")
    assert main(["report", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_report_infeasible_geometry(tmp_path, capsys):
    cfg = _write(tmp_path, "small.json", {
        "surface": "plane",
        "pole": [12.0, 0.0],
        "schedule": {"t_max": 10.0},
        "grid": 64,
    })
    assert main(["report", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error" in err and "boundary reaches extrinsic distance" in err


@pytest.mark.parametrize("surface", ["enneper", "plane", "sphere_control"])
def test_grid_node_on_the_pole_names_the_fix(surface, tmp_path, capsys):
    # With 97 half-offset nodes on (-a, a) the middle node sits at the
    # chart origin, the default pole; 96 nodes straddle it.
    schedule = {"count": 3}
    cfg = _write(tmp_path, "odd.json", {"surface": surface, "grid": 97,
                                        "schedule": schedule})
    assert main(["report", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert ("grid node (48, 48) at chart point (0, 0) lies on the pole"
            in err)
    assert "even node count" in err and "move the pole" in err
    cfg = _write(tmp_path, "mixed.json", {"surface": surface,
                                          "grid": [97, 96],
                                          "schedule": schedule})
    assert main(["report", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0


def test_radius_below_grid_resolution_is_skipped(tmp_path):
    # No node of the 64^2 plane grid lies within t = 0.001 of the pole
    # (the nearest is at r = 0.055), so that ball is empty on the grid
    # although the true ball holds the pole.  It is recorded as skipped,
    # and the report is written and exits by its verdicts.
    cfg = _write(tmp_path, "tiny.json", {
        "surface": "plane", "grid": 64,
        "schedule": {"t_min": 0.001, "t_max": 2, "count": 3},
    })
    out_dir = tmp_path / "out"
    code = main(["report", cfg, "--out", str(out_dir), "--quiet"])
    doc = read_report_json(out_dir / "report.json")
    assert code == doc["report"]["exit_status"] == 0
    lines = (out_dir / "series.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3
    skipped = doc["report"]["skipped"]
    assert [t for t, _ in skipped] == pytest.approx([0.001, 0.04472136])
    note = skipped[0][1]
    assert "t = 0.001" in note and "r = 0.0552" in note
    assert "refine the grid or raise t_min" in note


@pytest.mark.parametrize("doc,key", [
    ({"surface": "hyperbolic_catenoid", "params": {"c": "x"}}, "'c'"),
    ({"surface": "hyperbolic_catenoid", "params": {"c": float("nan")}},
     "'c'"),
    ({"surface": "catenoid", "schedule": {"t_max": float("inf")}},
     "'t_max'"),
    ({"surface": "hyperbolic_catenoid",
      "schedule": {"t_max": float("inf")}}, "'t_max'"),
    ({"surface": "plane", "pole": [float("nan"), 0.0]}, "'pole'"),
    ({"surface": "plane", "pole": [float("inf"), 0.0]}, "'pole'"),
    ({"surface": "plane", "pole": [100, 0],
      "schedule": {"t_max": 2.0, "count": 3}}, "'pole' [100, 0]"),
    ({"surface": "enneper", "pole": [0, 40],
      "schedule": {"t_max": 2.0, "count": 3}}, "'pole' [0, 40]"),
], ids=["c_string", "c_nan", "t_max_inf_catenoid", "t_max_inf_hyperbolic",
        "pole_nan", "pole_inf", "pole_off_plane_chart",
        "pole_off_enneper_chart"])
def test_report_bad_numbers_name_their_key(tmp_path, capsys, doc, key):
    cfg = _write(tmp_path, "bad.json", dict(doc, grid=64))
    assert main(["report", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("extballs: error:") and key in err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 1
    capsys.readouterr()


def test_helicoid_reports_hypothesis_violation(tmp_path, capsys):
    cfg = _write(tmp_path, "helicoid.json", {
        "surface": "helicoid",
        "schedule": {"t_min": 1.0, "t_max": 8.0, "count": 6},
        "grid": 128,
    })
    out_dir = tmp_path / "out"
    assert main(["report", cfg, "--out", str(out_dir)]) == 2
    doc = read_report_json(out_dir / "report.json")
    assert doc["report"]["hypothesis_violated"] is True
    assert doc["report"]["exit_status"] == 2
    capsys.readouterr()


def test_sweep_aggregates_runs(plane_config, tmp_path, capsys):
    out_root = tmp_path / "sweep"
    assert main(["sweep", plane_config, "--param", "schedule.count",
                 "--values", "3,4", "--out", str(out_root)]) == 0
    doc = json.loads((out_root / "sweep.json").read_text())
    assert doc["param"] == "schedule.count"
    assert doc["values"] == [3, 4]
    assert len(doc["runs"]) == 2
    for index, run in enumerate(doc["runs"]):
        assert run["error"] is None
        assert run["exit_status"] == 0
        assert (out_root / f"run_{index:03d}" / "report.json").exists()
        assert run["verdicts"]["kg_identity"]["passed"] is True
    capsys.readouterr()


def test_sweep_isolates_bad_values(plane_config, tmp_path, capsys):
    out_root = tmp_path / "sweep"
    assert main(["sweep", plane_config, "--param", "schedule.count",
                 "--values", "3,1", "--out", str(out_root), "--quiet"]) == 1
    doc = json.loads((out_root / "sweep.json").read_text())
    assert doc["runs"][0]["error"] is None
    assert "ConfigError" in doc["runs"][1]["error"]


def test_sweep_records_a_bad_parameter_value(tmp_path):
    cfg = _write(tmp_path, "hc.json", {"surface": "hyperbolic_catenoid",
                                       "grid": 64})
    out_root = tmp_path / "sweep"
    assert main(["sweep", cfg, "--param", "params.c", "--values", '["x"]',
                 "--out", str(out_root), "--quiet"]) == 1
    doc = json.loads((out_root / "sweep.json").read_text())
    assert doc["values"] == ["x"]
    error = doc["runs"][0]["error"]
    assert error.startswith("ConfigError") and "'c'" in error


def test_sweep_rejects_tolerance_parameter(plane_config, tmp_path):
    out_root = tmp_path / "sweep"
    assert main(["sweep", plane_config, "--param", "tolerances.kg_gap",
                 "--values", "1e-5,2e-5", "--out", str(out_root),
                 "--quiet"]) == 1
    doc = json.loads((out_root / "sweep.json").read_text())
    assert len(doc["runs"]) == 2
    for run in doc["runs"]:
        assert "unknown sweep parameter" in run["error"]


def test_sweep_rejects_alphas_parameter(plane_config, tmp_path):
    out_root = tmp_path / "sweep"
    assert main(["sweep", plane_config, "--param", "alphas",
                 "--values", "[[0.5], [1.0]]", "--out", str(out_root),
                 "--quiet"]) == 1
    doc = json.loads((out_root / "sweep.json").read_text())
    assert len(doc["runs"]) == 2
    for run in doc["runs"]:
        assert "unknown config key(s) ['alphas']" in run["error"]


def test_sweep_json_values(plane_config, tmp_path):
    out_root = tmp_path / "sweep"
    assert main(["sweep", plane_config, "--param", "grid",
                 "--values", "[[64, 96]]", "--out", str(out_root),
                 "--quiet"]) == 0
    doc = json.loads((out_root / "sweep.json").read_text())
    assert doc["values"] == [[64, 96]]
    assert doc["runs"][0]["error"] is None


def test_report_loads_no_scipy(tmp_path):
    # SciPy is a test dependency only: neither importing the CLI nor a
    # hyperbolic catenoid report (the profile ODE, the component labelling)
    # may load it, eagerly or lazily.  The short schedule fails the
    # Chern-Osserman equality verdict, so the report exits 1.
    cfg = _write(tmp_path, "hc.json", {
        "surface": "hyperbolic_catenoid",
        "schedule": {"t_min": 0.5, "t_max": 2.0, "count": 3},
        "grid": 96,
    })
    script = (
        "import json, sys\n"
        "import extballs.cli\n"
        f"status = extballs.cli.main(['report', {cfg!r}, '--out', "
        f"{str(tmp_path / 'out')!r}, '--quiet'])\n"
        "print(json.dumps([status, sorted(m for m in sys.modules\n"
        "                                 if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(
            os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [1, []]
    doc = read_report_json(tmp_path / "out" / "report.json")
    assert doc["report"]["surface"] == "hyperbolic_catenoid"
