"""Numerical comparison geometry for extrinsic balls on minimal surfaces.

The package measures area, boundary length, and curvature integrals of
extrinsic balls (surface pieces inside ambient geodesic balls) on concrete
minimal surfaces in Euclidean and hyperbolic space forms, and turns the
measurements into pass/fail verdicts for the comparison inequalities that
govern their growth.
"""

from __future__ import annotations

from .errors import (
    ConfigError,
    ConstructionError,
    CriticalRadius,
    DomainTooSmall,
    GeometryError,
    ImmersionError,
    ModelError,
    PoleOffModel,
    PoleSingularity,
)
from .immersion import FrameBatch, ParametricSurface, frames
from .space_forms import SpaceForm

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstructionError",
    "CriticalRadius",
    "DomainTooSmall",
    "FrameBatch",
    "GeometryError",
    "ImmersionError",
    "ModelError",
    "ParametricSurface",
    "PoleOffModel",
    "PoleSingularity",
    "SpaceForm",
    "frames",
    "__version__",
]
