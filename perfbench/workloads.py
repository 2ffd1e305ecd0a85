"""Workload inputs: the run configs of one round, made from a seed.

Configs use only the user-facing keys surface / params / pole / schedule /
grid, so every run takes the default user path (default worker count,
default kernel selection).
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

CATALOG = ("plane", "catenoid", "enneper", "helicoid", "h2_in_h3",
           "hyperbolic_catenoid", "sphere_control")

# The hyperbolic catenoid's trace-route k_g misses kg_gap = 1e-5 at
# u0 = 3.9 on the neck circle, at the 17th radius of the dense schedule
# (geomspace(0.5, 8, 48)[16]).  A schedule that starts at that radius
# with the same t_max keeps chart, grid and pole identical, so that
# radius fails on every run whatever the seed.
KG_SENTINEL = {
    "surface": "hyperbolic_catenoid",
    "grid": [512, 512],
    "pole": [3.9, 0.0],
    "schedule": {"t_min": 1.2849410091148186, "t_max": 8.0, "count": 6,
                 "spacing": "geometric"},
}


class Run(NamedTuple):
    """One CLI report of a round."""

    label: str
    config: dict
    kg_checked: bool = True    # gate each radius on the two k_g routes
    known_fault: bool = False  # its k_g misses are the known trace fault


def neck_angle(workload: str, seed: int) -> float:
    """Pole angle u0 on the neck circle v = 0, drawn from the seed."""
    return random.Random(f"{workload}:{seed}").uniform(0.0, 2.0 * math.pi)


def runs(workload: str, seed: int) -> list[Run]:
    if workload == "catalog_defaults":
        return [Run(name, {"surface": name}) for name in CATALOG]
    if workload == "hyperbolic_dense":
        u0 = neck_angle(workload, seed)
        # The trace route misses kg_gap at some pole angles and not at
        # others, so on a seeded pole the miss is reported, not gated;
        # the sentinel gates it on a fixed pole.
        return [
            Run("seeded", {
                "surface": "hyperbolic_catenoid",
                "grid": [512, 512],
                "pole": [u0, 0.0],
                "schedule": {"t_min": 0.5, "t_max": 8.0, "count": 48,
                             "spacing": "geometric"},
            }, kg_checked=False),
            Run("kg_sentinel", KG_SENTINEL, known_fault=True),
        ]
    if workload == "flat_fine":
        return [Run("seeded", {
            "surface": "catenoid",
            "grid": [1024, 1024],
            "pole": [neck_angle(workload, seed), 0.0],
            "schedule": {"t_min": 0.5, "t_max": 8.0, "count": 6,
                         "spacing": "geometric"},
        })]
    raise KeyError(workload)


WORKLOADS = ("catalog_defaults", "hyperbolic_dense", "flat_fine")
