"""Set-up probe: import the CLI in a fresh interpreter, then describe it.

Prints one JSON line.  ``ready`` is CLOCK_MONOTONIC, shared by every
process on the host, read once ``extballs.cli`` is imported and its
parser built; the parent subtracts its own reading taken before the
spawn.  The environment is read afterwards so it costs set-up nothing.
"""

import time

import extballs.cli

extballs.cli.build_parser()
READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

try:
    import numba  # noqa: F401
    NUMBA = True
except ImportError:
    NUMBA = False

print(json.dumps({
    "ready": READY,
    "env": {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_imports": NUMBA,
    },
}))
