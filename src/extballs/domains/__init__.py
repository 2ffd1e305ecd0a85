"""Extrinsic-ball extraction: distance fields, contours, quadrature."""

from .balls import (BoundarySamples, ExtrinsicBall, coarea_integral,
                    extract_ball)
from .contours import (Level, bisect_boundary, level_components,
                       project_to_level, solve_level)
from .field import (DistanceField, GridSpec, build_field, critical_scan,
                    level_cells)
from .quadrature import region_integral

__all__ = [
    "BoundarySamples", "ExtrinsicBall", "coarea_integral",
    "extract_ball", "Level", "bisect_boundary", "level_components",
    "project_to_level", "solve_level", "DistanceField", "GridSpec",
    "build_field", "critical_scan", "level_cells", "region_integral",
]
