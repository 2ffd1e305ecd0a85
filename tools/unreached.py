"""List the functions of src/extballs that the reference runs never call.

    python3 tools/unreached.py

Runs, in this process, the reference runs of ``tools/report_runs.py``,
``extballs catalog list`` and one ``extballs sweep`` (``configs/quick.json``
over two grids), then prints one line per function or method defined in
``src/extballs`` that none of them called, as ``path:line name``.  Calls
are seen through a profiler hook (``sys.setprofile``), and the work runs
on one worker (``extballs.immersion._WORKERS = 1``): the hook cannot see
the calls of ``batch_map`` items run in forked children.  The package is
imported under the hook, so what runs at import counts as reached.  A
lambda or comprehension counts as part of the function that holds it.
Exits 0, or 1 with a traceback when a run raises.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "extballs"
sys.path.insert(0, str(ROOT / "src"))


def defined() -> dict[tuple[str, int], str]:
    """(file, first line) -> dotted name of every def in the package.

    The first line is the code object's ``co_firstlineno``: that of the
    first decorator, if any.
    """
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found[(path, first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")),
              os.path.realpath(path), "")
    return found


def reached(work: Callable[[], object]) -> set[tuple[str, int]]:
    """(file, first line) of every function called while ``work()`` runs,
    with every `batch_map` item run in this process."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    try:
        from extballs import immersion
        workers, immersion._WORKERS = immersion._WORKERS, 1
        try:
            work()
        finally:
            immersion._WORKERS = workers
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in codes}


def unreached_lines(seen: set[tuple[str, int]]) -> list[str]:
    """``path:line name`` of every package def whose code is not in seen."""
    return [f"{Path(path).relative_to(ROOT)}:{line} {name}"
            for (path, line), name in sorted(defined().items())
            if (path, line) not in seen]


def _exercise(out: Path) -> None:
    """The reference runs, ``catalog list`` and one sweep, into out."""
    spec = importlib.util.spec_from_file_location(
        "_report_runs", ROOT / "tools" / "report_runs.py")
    report_runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report_runs)
    from extballs.cli import main as cli_main

    with contextlib.redirect_stdout(io.StringIO()):
        if report_runs.main([str(out / "runs")]):
            raise RuntimeError("a reference run raised")
        cli_main(["catalog", "list"])
        if cli_main(["sweep", str(ROOT / "configs" / "quick.json"),
                     "--param", "grid", "--values", "[96, 128]",
                     "--out", str(out / "sweep"), "--quiet"]):
            raise RuntimeError("a sweep run raised")


def main(argv: list[str]) -> int:
    if argv:
        print("usage: unreached.py", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        seen = reached(lambda: _exercise(Path(tmp)))
    for line in unreached_lines(seen):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
