"""README stays in step with the program it documents."""

import dataclasses
import importlib
import json
import re
from pathlib import Path

from extballs.config import RunConfig
from extballs.functionals import RadiusRecord
from extballs.verdicts import TOLERANCES, Verdict, VerdictReport

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _section(heading: str) -> str:
    start = README.index(heading + "\n")
    end = README.find("\n#", start + len(heading))
    return README[start:end if end >= 0 else None]


def test_configuration_example_loads():
    example = re.search(r"```json\n(.*?)```", _section("## Configuration"),
                        re.S)
    cfg = RunConfig.from_dict(json.loads(example.group(1)))
    assert cfg.surface == "catenoid"


def test_tolerance_table_matches_program():
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|",
                      _section("### Verdict tolerances (fixed)"), re.M)
    assert {name: float(value) for name, value in rows} == TOLERANCES
    assert len(rows) == len(TOLERANCES)


def test_verdict_field_list_matches_program():
    fields = re.search(r"Every verdict carries `([^`]+)`",
                       README.replace("\n", " "))
    listed = [name.strip() for name in fields.group(1).split(",")]
    assert listed == [f.name for f in dataclasses.fields(Verdict)]


def test_report_key_list_matches_program():
    listing = re.search(r"^report   — (.*?)```", _section("### `report.json`"),
                        re.S | re.M)
    listed = [name.strip() for name in listing.group(1).split(",")]
    blank = {f.name: None for f in dataclasses.fields(VerdictReport)}
    report = VerdictReport(**dict(blank, verdicts=[]))
    assert listed == list(report.as_dict())


def test_series_column_list_matches_program():
    listing = re.search(r"Columns:\s+`([^`]+)`", _section("### `series.csv`"))
    listed = [name.strip() for name in listing.group(1).split(",")]
    assert listed == list(RadiusRecord(t=1.0).as_dict())


def _resolve(dotted: str):
    """Import the longest module prefix of a name, then getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(dotted)


def test_dotted_names_resolve():
    names = set(re.findall(r"`(extballs(?:\.\w+)+)", README))
    assert names
    unresolved = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert unresolved == []
