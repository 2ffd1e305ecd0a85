"""Tests for run-configuration parsing and report/CSV artifacts."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from extballs.config import RunConfig, set_config_key
from extballs.errors import ConfigError
from extballs.functionals import EULER_ALPHAS, RadiusRecord, RadiusSeries
from extballs.report import (SCHEMA_VERSION, report_document,
                             verdict_lines, write_report_json,
                             write_series_csv)
from extballs.verdicts import Verdict, VerdictReport
from oracles import read_report_json

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs")
                 .glob("*.json"))


# ---------------------------------------------------------------------------
# RunConfig parsing


def test_minimal_config_defaults():
    cfg = RunConfig.from_dict({"surface": "plane"})
    assert cfg.surface == "plane"
    assert cfg.grid == (512, 512)
    assert cfg.spacing == "geometric"
    kwargs = cfg.run_kwargs()
    assert kwargs["t_min"] is None and kwargs["t_max"] is None
    assert kwargs["params"] is None


def test_full_config_round_trip(tmp_path):
    doc = {
        "surface": "hyperbolic_catenoid",
        "params": {"c": 2.0},
        "pole": [0.1, 0.2],
        "schedule": {"t_min": 0.5, "t_max": 6.0, "count": 12,
                     "spacing": "linear"},
        "grid": [128, 256],
        "output": "out/hc",
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = RunConfig.from_json(path)
    assert cfg.params == {"c": 2.0}
    assert cfg.pole_uv == (0.1, 0.2)
    assert cfg.t_min == 0.5 and cfg.t_max == 6.0 and cfg.count == 12
    assert cfg.spacing == "linear"
    assert cfg.grid == (128, 256)
    assert cfg.output == "out/hc"
    kwargs = cfg.run_kwargs()
    assert kwargs["pole_uv"] == (0.1, 0.2)


def test_pole_default_keyword():
    cfg = RunConfig.from_dict({"surface": "plane", "pole": "default"})
    assert cfg.pole_uv is None


def test_grid_forms():
    assert RunConfig.from_dict(
        {"surface": "plane", "grid": 256}).grid == (256, 256)
    assert RunConfig.from_dict(
        {"surface": "plane", "grid": [128, 192]}).grid == (128, 192)


# Settings the config format no longer has, with the key each names.
_REMOVED = [
    ({"surface": "plane", "min_samples": 200}, "min_samples"),
    ({"surface": "plane", "grid": {"n_u": 128, "n_v": 128}}, "grid"),
    ({"surface": "plane", "grid": {"n_u": 128, "periodic_v": False}},
     "grid"),
    ({"surface": "plane", "tolerances": {}}, "tolerances"),
    ({"surface": "plane", "tolerances": {"kg_gap": 2e-5}}, "tolerances"),
    ({"surface": "plane", "alphas": [0.5, 1.0]}, r"\['alphas'\]"),
]


@pytest.mark.parametrize("doc", [
    {"surface": "plane", "bogus": 1},
    {"surface": "plane", "schedule": {"tmax": 4.0}},
    {"surface": "plane", "grid": {"n_u": 128, "wrap": True}},
    {"surface": "plane", "schedule": {"t_min": 2.0, "t_max": 1.0}},
    {"surface": "plane", "schedule": {"count": 1}},
    {"surface": "plane", "schedule": {"spacing": "cubic"}},
    {"surface": "plane", "grid": 32},
    {"surface": "plane", "grid": True},
    {"surface": "plane", "alphas": [2.5]},
    {"surface": "plane", "alphas": []},
    {"surface": "plane", "pole": [1.0]},
    {"surface": "plane", "tolerances": {"no_such_tol": 1.0}},
    {"surface": "plane", "min_samples": 0},
    {"surface": 7},
    {},
    {"surface": "plane", "workers": 2},
] + [doc for doc, _ in _REMOVED])
def test_rejected_configs(doc):
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("doc,key", _REMOVED)
def test_removed_settings_name_their_key(doc, key):
    with pytest.raises(ConfigError, match=key):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("doc,key", [
    ({"surface": "plane", "schedule": {"t_max": math.inf}}, "t_max"),
    ({"surface": "plane", "schedule": {"t_max": math.nan}}, "t_max"),
    ({"surface": "plane", "schedule": {"t_min": math.nan}}, "t_min"),
    ({"surface": "plane", "pole": [math.nan, 0.0]}, "pole"),
    ({"surface": "plane", "pole": [math.inf, 0.0]}, "pole"),
    ({"surface": "plane", "pole": [0.0, -math.inf]}, "pole"),
])
def test_non_finite_numbers_name_their_key(doc, key):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_configs_load(path):
    cfg = RunConfig.from_json(path)
    assert cfg.surface == json.loads(path.read_text())["surface"]


# ---------------------------------------------------------------------------
# set_config_key (sweep support)


def test_set_config_key_top_level():
    doc = {"surface": "plane"}
    out = set_config_key(doc, "grid", 128)
    assert out["grid"] == 128
    assert "grid" not in doc  # original untouched


def test_set_config_key_nested():
    doc = {"surface": "hyperbolic_catenoid", "params": {"c": 1.0}}
    out = set_config_key(doc, "params.c", 2.0)
    assert out["params"]["c"] == 2.0
    assert doc["params"]["c"] == 1.0
    out = set_config_key(doc, "schedule.count", 6)
    assert out["schedule"]["count"] == 6


def test_set_config_key_rejects_unknown_head():
    with pytest.raises(ConfigError):
        set_config_key({"surface": "plane"}, "nope.x", 1)
    with pytest.raises(ConfigError):
        set_config_key({"surface": "plane"}, "a.b.c", 1)


# ---------------------------------------------------------------------------
# CSV series artifact


def _tiny_series():
    rec1 = RadiusRecord(t=0.5, area=0.25, length=1.5, ends=1,
                        ratio=1.0 + 2 ** -30,
                        euler_margins={0.25: 0.125, 1.0: float("nan")})
    rec2 = RadiusRecord(t=1.0, skipped=True, note="critical radius",
                        euler_margins={0.25: float("nan"),
                                       1.0: float("nan")})
    return RadiusSeries(records=[rec1, rec2], R0=0.25)


def test_series_csv_round_trip(tmp_path):
    series = _tiny_series()
    path = write_series_csv(tmp_path / "series.csv", series)
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header == list(RadiusRecord(t=1.0).as_dict())
    assert len(data) == 2
    row1 = dict(zip(header, data[0]))
    row2 = dict(zip(header, data[1]))
    # Full precision floats, lowercase bools, nan markers.
    assert float(row1["ratio"]) == 1.0 + 2 ** -30
    assert row1["skipped"] == "false"
    assert row2["skipped"] == "true"
    assert row2["note"] == "critical radius"
    assert row2["area"] == "nan"
    assert row1["euler_margin_a025"] == "0.125"
    assert row1["euler_margin_a100"] == "nan"


@pytest.mark.parametrize("skip_first", [False, True])
def test_series_csv_rows_share_fixed_columns(tmp_path, skip_first):
    # As the pipeline builds them: Euler margins on measured radii only,
    # here at two of the four weights.
    measured = RadiusRecord(t=0.5, area=0.25,
                            euler_margins={0.25: 0.125, 1.0: 0.5})
    skipped = RadiusRecord(t=1.0, skipped=True, note="critical radius")
    records = [skipped, measured] if skip_first else [measured, skipped]
    path = write_series_csv(tmp_path / "series.csv",
                            RadiusSeries(records=records, R0=0.25))
    with path.open(encoding="utf-8", newline="") as fh:
        header, *data = list(csv.reader(fh))
    assert header == list(skipped.as_dict()) == list(measured.as_dict())
    assert header[-4:] == [f"euler_margin_a{round(100 * a):03d}"
                           for a in EULER_ALPHAS]
    assert all(len(row) == len(header) for row in data)
    rows = {row[0]: dict(zip(header, row)) for row in data}
    assert rows["0.5"]["euler_margin_a025"] == "0.125"
    assert rows["0.5"]["euler_margin_a050"] == "nan"
    assert rows["0.5"]["euler_margin_a100"] == "0.5"
    assert rows["0.5"]["euler_margin_a150"] == "nan"
    assert all(rows["1.0"][col] == "nan" for col in header[-4:])


def test_series_csv_handles_numpy_scalars(tmp_path):
    series = _tiny_series()
    series.records[0].R_prime = np.float64(2.5)
    series.records[0].ends = np.int64(2)
    path = write_series_csv(tmp_path / "series.csv", series)
    text = path.read_text(encoding="utf-8")
    assert "np.float64" not in text and "np.int64" not in text
    assert "2.5" in text


# ---------------------------------------------------------------------------
# JSON report artifact


class _StubReport:
    """Duck-typed stand-in exposing just what report_document reads."""

    def __init__(self, payload):
        self._payload = payload

    def as_dict(self):
        return self._payload


def test_report_document_structure():
    doc = report_document(_StubReport({"surface": "plane", "R_end": 1.5}),
                          {"surface": "plane"})
    assert doc["schema_version"] == SCHEMA_VERSION
    assert doc["generator"]["package"] == "extballs"
    assert doc["config"] == {"surface": "plane"}
    assert doc["report"]["R_end"] == 1.5


def test_report_json_strict_and_deterministic(tmp_path):
    payload = {
        "surface": "x",
        "G_b": float("nan"),
        "R_end": float("inf"),
        "sup": np.float64(1.25),
        "flag": np.bool_(True),
        "seq": [1.0, float("nan")],
    }
    p1 = write_report_json(tmp_path / "a.json", _StubReport(payload))
    p2 = write_report_json(tmp_path / "b.json", _StubReport(payload))
    assert p1.read_text() == p2.read_text()
    text = p1.read_text(encoding="utf-8")
    assert "NaN" not in text and "Infinity" not in text
    doc = read_report_json(p1)
    assert doc["report"]["G_b"] is None
    assert doc["report"]["R_end"] is None
    assert doc["report"]["sup"] == 1.25
    assert doc["report"]["flag"] is True
    assert doc["report"]["seq"] == [1.0, None]
    assert math.isfinite(doc["report"]["sup"])


# ---------------------------------------------------------------------------
# Terminal summary


def test_verdict_lines_list_skipped_radii():
    report = VerdictReport(
        surface="plane", ambient="R^3", declared_minimal=True,
        measured_minimal=True, max_normH=0.0, pole=[0.0, 0.0, 0.0],
        grid=(64, 64), t_max=2.0, schedule=[0.5, 1.0, 2.0],
        skipped=[(1.0, "within 1e-06 of critical value 1.000000")],
        R0=0.5, critical_values=[1.0], chi=1, sup_growth=1.0, R_end=0.0,
        R_growth_doubling=0.0, G_b=float("nan"), G_b_spread=float("nan"),
        hypothesis_violated=False,
        verdicts=[Verdict("growth", True, True, 0.5, 1e-9)])
    lines = verdict_lines(report)
    skip = [line for line in lines if "t=1.000000" in line]
    assert len(skip) == 1
    assert "within 1e-06 of critical value 1.000000" in skip[0]
    assert lines[-1] == "exit status 0"
