"""Command-line driver: run configs, sweeps, and the catalog listing.

Exit codes: 0 when every applicable gating verdict passes, 2 when a run
detects that the growth hypothesis fails (total curvature diverging),
and 1 when any other gating verdict fails or for configuration or
numeric errors.  Usage mistakes also exit 1 so that 2 is reserved for
the mathematical outcome.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import RunConfig, set_config_key
from .errors import GeometryError
from .catalog import list_entries
from .pipeline import run_surface
from .report import (report_document, verdict_lines, write_report_json,
                     write_series_csv)

_SUMMARY_FIELDS = ("chi", "sup_growth", "R_end", "R_growth_doubling",
                   "G_b", "G_b_spread", "hypothesis_violated")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extballs",
        description="Measure extrinsic-ball growth and curvature on "
                    "catalog minimal surfaces and verdict the comparison "
                    "inequalities.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    rep = sub.add_parser("report", help="run one config, write artifacts")
    rep.add_argument("config", help="path to a JSON run configuration")
    rep.add_argument("--out", help="output directory (overrides the "
                                   "config's 'output'; default 'out')")
    rep.add_argument("--quiet", action="store_true",
                     help="suppress the per-verdict terminal summary")

    swp = sub.add_parser("sweep", help="repeat a config over parameter "
                                       "values, aggregate the reports")
    swp.add_argument("config", help="path to a JSON run configuration")
    swp.add_argument("--param", required=True,
                     help="config key to vary, e.g. params.c | grid | "
                          "pole | schedule.count")
    swp.add_argument("--values", required=True,
                     help="JSON array, or comma-separated JSON values")
    swp.add_argument("--out", help="output directory (default 'out')")
    swp.add_argument("--quiet", action="store_true",
                     help="suppress per-run terminal summaries")

    cat = sub.add_parser("catalog", help="catalog introspection")
    catsub = cat.add_subparsers(dest="catalog_command", required=True,
                                parser_class=_Parser)
    catsub.add_parser("list", help="list built-in surfaces")
    return parser


def _load_config(path: str) -> tuple:
    cfg = RunConfig.from_json(path)
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return cfg, doc


def _out_dir(arg_out, cfg: RunConfig, default: str = "out") -> Path:
    return Path(arg_out or cfg.output or default)


def _execute(cfg: RunConfig, doc: dict, out_dir: Path, quiet: bool) -> int:
    result = run_surface(cfg.surface, **cfg.run_kwargs())
    report = result.report
    write_series_csv(out_dir / "series.csv", result.series)
    write_report_json(out_dir / "report.json", report, doc)
    if not quiet:
        for line in verdict_lines(report):
            print(line)
        print(f"wrote {out_dir / 'series.csv'} and "
              f"{out_dir / 'report.json'}")
    return report.exit_status


def _cmd_report(args) -> int:
    cfg, doc = _load_config(args.config)
    return _execute(cfg, doc, _out_dir(args.out, cfg), args.quiet)


def _parse_values(raw: str) -> list:
    try:
        parsed = json.loads(raw)
        return parsed if isinstance(parsed, list) else [parsed]
    except json.JSONDecodeError:
        pass
    values = []
    for piece in raw.split(","):
        piece = piece.strip()
        try:
            values.append(json.loads(piece))
        except json.JSONDecodeError:
            values.append(piece)
    return values


def _summarize(report_doc: dict) -> dict:
    rep = report_doc["report"]
    summary = {k: rep[k] for k in _SUMMARY_FIELDS}
    summary["exit_status"] = rep["exit_status"]
    summary["verdicts"] = {
        v["name"]: {"passed": v["passed"], "applicable": v["applicable"],
                    "margin": v["margin"]}
        for v in rep["verdicts"]}
    return summary


def _cmd_sweep(args) -> int:
    _, base_doc = _load_config(args.config)
    values = _parse_values(args.values)
    if not values:
        print("extballs: error: --values parsed to an empty list",
              file=sys.stderr)
        return 1

    base_cfg = RunConfig.from_dict(base_doc)
    out_root = _out_dir(args.out, base_cfg)
    runs = []
    errored = False
    for index, value in enumerate(values):
        run_dir = out_root / f"run_{index:03d}"
        entry = {"index": index, "param": args.param, "value": value,
                 "dir": str(run_dir)}
        try:
            doc = set_config_key(base_doc, args.param, value)
            cfg = RunConfig.from_dict(doc)
            result = run_surface(cfg.surface, **cfg.run_kwargs())
            write_series_csv(run_dir / "series.csv", result.series)
            write_report_json(run_dir / "report.json", result.report, doc)
            entry["error"] = None
            entry.update(_summarize(report_document(result.report, doc)))
            if not args.quiet:
                print(f"[{index}] {args.param}={value!r} -> exit "
                      f"{result.report.exit_status}")
        except (GeometryError, OSError, ValueError) as exc:
            errored = True
            entry["error"] = f"{type(exc).__name__}: {exc}"
            if not args.quiet:
                print(f"[{index}] {args.param}={value!r} -> error: "
                      f"{entry['error']}")
        runs.append(entry)

    aggregate = {
        "schema_version": 1,
        "param": args.param,
        "values": values,
        "runs": runs,
    }
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "sweep.json").write_text(
        json.dumps(aggregate, indent=2, allow_nan=False) + "\n",
        encoding="utf-8")
    if not args.quiet:
        print(f"wrote {out_root / 'sweep.json'}")
    return 1 if errored else 0


def _cmd_catalog_list() -> int:
    rows = list_entries()
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        flag = "minimal" if r["minimal"] else "control"
        sched = r["default_schedule"]
        print(f"{r['name']:<{width}}  [{r['ambient']}, {flag}]  "
              f"{r['description']}")
        print(f"{'':<{width}}  default schedule: t in "
              f"[{sched['t_min']}, {sched['t_max']}] x "
              f"{sched['points']} points; expected boundary "
              f"curves: {r['expected_ends']}")
        for pname, pdoc in sorted(r["parameters"].items()):
            print(f"{'':<{width}}  param {pname}: {pdoc}")
        for ref in r["references"]:
            print(f"{'':<{width}}  reference {ref['quantity']} = "
                  f"{ref['value']} ({ref['provenance']})")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "catalog":
            return _cmd_catalog_list()
        raise AssertionError(f"unhandled command {args.command!r}")
    except GeometryError as exc:
        print(f"extballs: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"extballs: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
