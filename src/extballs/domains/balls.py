"""Extrinsic balls: area integrals and boundary samples with frames.

``extract_ball`` is the per-radius entry point.  It finds the cells the
level curve {r = t} cuts in the field's bucketed band, solves each cut
edge's crossing once and labels each crossing with its closed
component of the unordered segments that join them.  It integrates
area, |B|^2 and K over {r < t} from the same cut cells and crossings.
The boundary is that one set of vertices and segments: the segments of
every component short of its share of ``MIN_SAMPLES`` are bisected
together, the set is grouped by component, and frames are evaluated on
it for geodesic-curvature work.  Every boundary quantity downstream is
a weighted sum over samples, so no component is ever put in order or
oriented.

Boundary length uses a cubic Hermite reconstruction per segment
(positions plus unit level-curve tangents, signed per segment to follow
its direction) integrated with two-point Gauss-Legendre in the induced
metric; each sample's arc-length weight is half the length of its two
segments.  A plain chord sum would be second order: on a unit circle
sampled at the grid's ~160 crossings it loses about 6e-5 of the length,
which is far above what the closed-form checks tolerate, while the
Hermite reconstruction is fifth order and leaves errors near 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, CriticalRadius
from ..immersion import FrameBatch, frames, radial_frames
from .contours import (bisect_boundary, level_components, segment_chords,
                       solve_level)
from .field import DistanceField, level_cells
from .quadrature import _unit_gauss_legendre, region_integral

_GL2_X, _GL2_W = _unit_gauss_legendre(2)

_LEVEL_NUDGE = 3e-13

# Boundary samples per ball, spread over its components (at least 32
# each).
MIN_SAMPLES = 200


@dataclass
class BoundarySamples:
    """Struct-of-arrays container of boundary samples.

    Per sample: chart coordinates ``uv``, arc-length quadrature ``weight``,
    unit tangent ``e`` (chart components) and its full geometric state in
    the ``frame`` batch.
    """

    uv: np.ndarray
    weight: np.ndarray
    e: np.ndarray
    frame: FrameBatch

    def __len__(self) -> int:
        return len(self.weight)


@dataclass
class ExtrinsicBall:
    """The ball {r < t} with its boundary samples and area integrals."""

    t: float
    area: float
    integrals: dict               # channel name -> integral over the ball
    n_components: int             # closed components of the boundary
    boundary_length: float
    samples: BoundarySamples
    min_grad: float


def _hermite_lengths(field: DistanceField, vertices: np.ndarray,
                     segments: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Metric lengths of the boundary's segments.

    Each segment is the cubic Hermite curve whose end tangents are the
    level curve's unit tangents e at its two ends, signed to follow the
    segment's direction.
    """
    start, d = segment_chords(field, vertices, segments)
    e0, e1 = e[segments[:, 0]], e[segments[:, 1]]
    sign = np.where(np.sum(d * e0, axis=-1) < 0.0, -1.0, 1.0)[:, None]
    ell = np.linalg.norm(d, axis=-1, keepdims=True)
    m0 = sign * e0 / np.linalg.norm(e0, axis=-1, keepdims=True) * ell
    m1 = sign * e1 / np.linalg.norm(e1, axis=-1, keepdims=True) * ell

    s = _GL2_X[None, :, None]
    p0 = start[:, None, :]
    dd = d[:, None, :]
    a0 = m0[:, None, :]
    a1 = m1[:, None, :]
    # Cubic Hermite derivative at the GL nodes.
    dh00 = 6.0 * s * s - 6.0 * s
    dh10 = 3.0 * s * s - 4.0 * s + 1.0
    dh01 = -dh00
    dh11 = 3.0 * s * s - 2.0 * s
    xp = dh00 * p0 + dh10 * a0 + dh01 * (p0 + dd) + dh11 * a1
    x = (p0 + s * dd
         + s * (1.0 - s) * ((1.0 - s) * (a0 - dd) - s * (a1 - dd)))

    fb = radial_frames(field.surface, x[..., 0], x[..., 1])
    speed = np.sqrt(np.maximum(fb.metric_dot(xp, xp), 0.0))
    return speed @ _GL2_W


def no_node_note(t: float, r_nearest: float) -> str:
    """Why a radius that holds no grid node has no discrete ball."""
    return (f"no grid node inside t = {t:.6g} (nearest node at r = "
            f"{r_nearest:.6g}); refine the grid or raise t_min")


def extract_ball(field: DistanceField, t: float) -> ExtrinsicBall:
    """Extract the extrinsic ball of radius t from a distance field.

    Raises ConfigError when no grid node lies inside it: every ball
    returned has a boundary of at least ``MIN_SAMPLES`` samples.
    """
    if not (0.0 < t <= field.t_max):
        raise ConfigError(f"radius {t} outside (0, t_max={field.t_max}]")
    # Nudge the level so node values never sit exactly on it; the area
    # and length move by O(1e-13).
    tt = t + _LEVEL_NUDGE * (1.0 + t)

    level = solve_level(field, tt, level_cells(field, tt))
    n_components, label = level_components(level)
    if n_components == 0:
        raise ConfigError(no_node_note(t, float(np.min(field.r))))
    integrals = region_integral(field, tt, level)

    uv, segments = bisect_boundary(
        field, tt, level.pos, level.segments, label,
        max(32, -(-MIN_SAMPLES // n_components)))
    fb = frames(field.surface, uv[:, 0], uv[:, 1], pole=field.pole)

    min_grad = float(np.min(fb.normGradPr))
    if min_grad < 1e-6:
        raise CriticalRadius(t, f"gradient norm {min_grad:.2e} on boundary")

    nu = fb.gradPr / fb.normGradPr[:, None]
    e = fb.rotate90(nu)

    # Each sample carries half the length of each of its two segments.
    lengths = _hermite_lengths(field, uv, segments, e)
    weights = 0.5 * np.bincount(segments.ravel(),
                                weights=np.repeat(lengths, 2),
                                minlength=len(uv))

    samples = BoundarySamples(uv=uv, weight=weights, e=e, frame=fb)
    return ExtrinsicBall(
        t=t, area=integrals["one"], integrals=integrals,
        n_components=n_components, boundary_length=float(np.sum(lengths)),
        samples=samples, min_grad=min_grad)


def coarea_integral(ball: ExtrinsicBall) -> float:
    """Boundary integral of 1 / |grad r| (the derivative of area in t)."""
    return float(np.sum(ball.samples.weight / ball.samples.frame.normGradPr))
