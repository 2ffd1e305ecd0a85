"""Run one round of a workload in this fresh process.

    python3 perfbench/round_child.py PLAN.json RESULT.json

PLAN lists the CLI reports to make ({"runs": [{"config", "out"}, ...],
"trace": bool, "spans": path or null}).  Each report goes through the
public entry point ``extballs.cli.main(["report", ...])``.  RESULT gets
the round's wall time, peak RSS, exit statuses and, when traced, the
layer summary.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    import extballs.cli as cli

    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()

    statuses = []
    start = time.perf_counter()
    for run in plan["runs"]:
        statuses.append(cli.main(["report", run["config"], "--out",
                                  run["out"], "--quiet"]))
    wall = time.perf_counter() - start

    result = {
        "wall_s": wall,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "statuses": statuses,
        "kernel_modules": sorted(m for m in sys.modules
                                 if m.startswith("extballs.kernels")),
    }
    if tracer is not None:
        result["trace"] = tracer.summary(threading.main_thread().ident, wall)
        if plan["spans"]:
            tracer.write(plan["spans"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
