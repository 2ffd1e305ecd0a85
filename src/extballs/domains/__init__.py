"""Extrinsic-ball extraction: distance fields, contours, quadrature."""

from .balls import (BoundarySamples, ExtrinsicBall, coarea_integral,
                    extract_ball)
from .contours import Loop, extract_loops, project_to_level
from .field import DistanceField, GridSpec, build_field, critical_scan
from .quadrature import region_integral

__all__ = [
    "BoundarySamples", "ExtrinsicBall", "coarea_integral",
    "extract_ball", "Loop", "extract_loops", "project_to_level",
    "DistanceField", "GridSpec", "build_field", "critical_scan",
    "region_integral",
]
