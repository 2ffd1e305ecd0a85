"""Extrinsic balls: area, boundary polylines, and boundary frames.

``extract_ball`` is the per-radius entry point.  It extracts the level
curve {r = t}, refines and orients every component, augments small loops
until the sample count supports boundary quadrature, computes the area of
{r < t} together with the curvature channels needed downstream, and
packages per-sample frames for geodesic-curvature work.

Boundary length uses a cubic Hermite reconstruction per polyline segment
(positions plus unit level-curve tangents) integrated with two-point
Gauss-Legendre in the induced metric.  A plain chord sum would be second
order: on a unit circle sampled at the grid's ~160 crossings it loses
about 6e-5 of the length, which is far above what the closed-form checks
tolerate, while the Hermite reconstruction is fifth order and leaves
errors near 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, CriticalRadius
from ..immersion import FrameBatch, frames, radial_frames
from .contours import Loop, augment_loop, extract_loops
from .field import DistanceField
from .quadrature import region_integral

_GL2_X, _GL2_W = np.polynomial.legendre.leggauss(2)
_GL2_X = 0.5 * (_GL2_X + 1.0)
_GL2_W = 0.5 * _GL2_W

_LEVEL_NUDGE = 3e-13


@dataclass
class BoundarySample:
    """One boundary sample: position, arc weight, and unit frame vectors."""

    uv: np.ndarray                # chart coordinates
    weight: float                 # arc-length weight for boundary quadrature
    e: np.ndarray                 # unit tangent, chart components
    nu: np.ndarray                # outward unit normal, chart components
    frame: FrameBatch             # full geometric state at the point


class BoundarySamples:
    """Struct-of-arrays container of boundary samples.

    Vectorized consumers read the arrays directly; indexing or iterating
    yields per-sample ``BoundarySample`` views.
    """

    def __init__(self, uv: np.ndarray, weight: np.ndarray, e: np.ndarray,
                 nu: np.ndarray, loop_id: np.ndarray, frame: FrameBatch):
        self.uv = uv
        self.weight = weight
        self.e = e
        self.nu = nu
        self.loop_id = loop_id
        self.frame = frame

    @staticmethod
    def concat(parts: list["BoundarySamples"]) -> "BoundarySamples":
        """Samples of several boundaries as one batch, in the given order.

        Loop ids keep their per-part values, so they stop identifying a
        loop; the result is for point-wise consumers.
        """
        def join(name):
            return np.concatenate([getattr(p, name) for p in parts])
        return BoundarySamples(
            uv=join("uv"), weight=join("weight"), e=join("e"), nu=join("nu"),
            loop_id=join("loop_id"),
            frame=FrameBatch.concat([p.frame for p in parts]))

    def __len__(self) -> int:
        return len(self.weight)

    def __getitem__(self, k: int) -> BoundarySample:
        return BoundarySample(uv=self.uv[k], weight=float(self.weight[k]),
                              e=self.e[k], nu=self.nu[k],
                              frame=self.frame[k])

    def __iter__(self):
        for k in range(len(self)):
            yield self[k]


@dataclass
class ExtrinsicBall:
    """The ball {r < t} with its boundary data and area integrals."""

    t: float
    pole: np.ndarray
    area: float
    integrals: dict               # channel name -> integral over the ball
    boundary: list[np.ndarray]    # per-loop (N, 2) chart vertices, oriented
    windings: list[int]
    loop_lengths: list[float]
    boundary_length: float
    samples: BoundarySamples
    min_grad: float

    @property
    def n_components(self) -> int:
        return len(self.boundary)


def _hermite_lengths(field: DistanceField, verts: np.ndarray,
                     e_chart: np.ndarray, closing: np.ndarray) -> np.ndarray:
    """Metric lengths of the closed polyline's segments."""
    nxt = np.roll(verts, -1, axis=0)
    nxt[-1] = verts[0] + closing
    d = nxt - verts
    t0 = e_chart / np.linalg.norm(e_chart, axis=-1, keepdims=True)
    t1 = np.roll(t0, -1, axis=0)
    ell = np.linalg.norm(d, axis=-1, keepdims=True)
    m0 = t0 * ell
    m1 = t1 * ell

    s = _GL2_X[None, :, None]
    p0 = verts[:, None, :]
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


def extract_ball(field: DistanceField, t: float,
                 min_samples: int = 200) -> ExtrinsicBall:
    """Extract the extrinsic ball of radius t from a distance field."""
    if not (0.0 < t <= field.t_max):
        raise ConfigError(f"radius {t} outside (0, t_max={field.t_max}]")
    # Nudge the level so node values never sit exactly on it; the area
    # and length move by O(1e-13).
    tt = t + _LEVEL_NUDGE * (1.0 + t)

    loops = extract_loops(field, tt)
    integrals = region_integral(field, tt, ("one", "normBsq", "K"))

    if not loops:
        empty = BoundarySamples(
            uv=np.zeros((0, 2)), weight=np.zeros(0), e=np.zeros((0, 2)),
            nu=np.zeros((0, 2)), loop_id=np.zeros(0, dtype=int),
            frame=frames(field.surface, np.zeros(0), np.zeros(0),
                         pole=field.pole))
        return ExtrinsicBall(t=t, pole=field.pole, area=integrals["one"],
                             integrals=integrals, boundary=[], windings=[],
                             loop_lengths=[], boundary_length=0.0,
                             samples=empty, min_grad=float("inf"))

    per_loop_min = max(32, -(-min_samples // len(loops)))
    loops = [augment_loop(field, tt, lp, per_loop_min) for lp in loops]

    (u0, u1), _ = field.surface.domain
    period = u1 - u0

    all_uv = np.concatenate([lp.vertices for lp in loops])
    loop_id = np.concatenate([
        np.full(len(lp), k, dtype=int) for k, lp in enumerate(loops)])
    fb = frames(field.surface, all_uv[:, 0], all_uv[:, 1], pole=field.pole)

    min_grad = float(np.min(fb.normGradPr))
    if min_grad < 1e-6:
        raise CriticalRadius(t, f"gradient norm {min_grad:.2e} on boundary")

    nu = fb.gradPr / fb.normGradPr[:, None]
    e = fb.rotate90(nu)

    # Orient each loop so traversal follows the tangent e = J nu; the
    # per-vertex frames are orientation-intrinsic, so only the vertex
    # order (and the winding sign) flips.
    offset = 0
    keep_order: list[np.ndarray] = []
    oriented: list[Loop] = []
    for k, lp in enumerate(loops):
        n = len(lp)
        sl = slice(offset, offset + n)
        verts = lp.vertices
        nxt = np.roll(verts, -1, axis=0)
        nxt[-1] = verts[0] + lp.closing_offset(period)
        chord = nxt - verts
        sigma = float(np.sum(fb[sl].metric_dot(chord, e[sl])))
        if sigma < 0.0:
            order = np.arange(offset + n - 1, offset - 1, -1)
            oriented.append(Loop(vertices=verts[::-1].copy(),
                                 winding=-lp.winding))
        else:
            order = np.arange(offset, offset + n)
            oriented.append(lp)
        keep_order.append(order)
        offset += n

    order = np.concatenate(keep_order)
    all_uv = all_uv[order]
    loop_id = loop_id[order]
    fb = fb[order]
    nu = nu[order]
    e = e[order]

    loop_lengths: list[float] = []
    weights = np.zeros(len(all_uv))
    offset = 0
    for k, lp in enumerate(oriented):
        n = len(lp)
        sl = slice(offset, offset + n)
        seg = _hermite_lengths(field, lp.vertices, e[sl],
                               lp.closing_offset(period))
        loop_lengths.append(float(np.sum(seg)))
        weights[sl] = 0.5 * (seg + np.roll(seg, 1))
        offset += n

    samples = BoundarySamples(uv=all_uv, weight=weights, e=e, nu=nu,
                              loop_id=loop_id, frame=fb)
    return ExtrinsicBall(
        t=t, pole=field.pole, area=integrals["one"], integrals=integrals,
        boundary=[lp.vertices for lp in oriented],
        windings=[lp.winding for lp in oriented],
        loop_lengths=loop_lengths,
        boundary_length=float(sum(loop_lengths)),
        samples=samples, min_grad=min_grad)


def coarea_integral(ball: ExtrinsicBall) -> float:
    """Boundary integral of 1 / |grad r| (the derivative of area in t)."""
    if len(ball.samples) == 0:
        return 0.0
    g = ball.samples.frame.normGradPr
    if float(np.min(g)) < 1e-6:
        raise CriticalRadius(ball.t, "gradient vanishes on the boundary")
    return float(np.sum(ball.samples.weight / g))


def ends_count(field: DistanceField, t: float) -> int:
    """Number of boundary components of the ball of radius t."""
    if not (0.0 < t <= field.t_max):
        raise ConfigError(f"radius {t} outside (0, t_max={field.t_max}]")
    tt = t + _LEVEL_NUDGE * (1.0 + t)
    return len(extract_loops(field, tt))
