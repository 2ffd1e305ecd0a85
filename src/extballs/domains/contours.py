"""Level-curve extraction for the extrinsic distance on a chart grid.

The marching-squares kernels emit contour segments as pairs of cut grid
edges.  This module turns them into closed loops with accurately placed
vertices:

* every cut edge gets one crossing point, refined by a safeguarded Newton
  iteration on the exact ambient distance along the edge (the grid only
  seeds the bracket, so no interpolation bias survives);
* segments are stitched into closed loops by walking the edge adjacency,
  which handles the periodic seam with no special casing because seam
  edges already share global ids;
* loops on periodic charts are unwrapped in u and carry their winding
  number, so downstream code can treat vertices as plain planar points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import backend
from ..errors import GeometryError
from ..immersion import radial_frames
from .field import DistanceField

_NEWTON_TOL = 1e-10
_NEWTON_ITERS = 5


@dataclass
class Loop:
    """One closed boundary component in chart coordinates.

    ``vertices`` are unwrapped: on a u-periodic chart consecutive vertices
    differ by small steps even across the seam, and the loop closes onto
    ``vertices[0] + (winding * period, 0)``.
    """

    vertices: np.ndarray          # (N, 2) chart points, unwrapped in u
    winding: int                  # net u-period wraps around the loop

    def __len__(self) -> int:
        return len(self.vertices)

    def closing_offset(self, period: float) -> np.ndarray:
        return np.array([self.winding * period, 0.0])


def _r_and_dirderiv(field: DistanceField, U, V, du, dv):
    """Exact r - and its derivative along the chart direction (du, dv)."""
    surf = field.surface
    form = surf.form
    F, Fu, Fv, _, _, _ = surf.jet(U, V)
    r = form.distance(field.pole, F, check=False)
    rad = form.radial_unit(field.pole, F)
    dX = Fu * np.asarray(du)[..., None] + Fv * np.asarray(dv)[..., None]
    return r, form.inner(rad, dX)


def _decode_edges(edges: np.ndarray, n_u: int, n_v: int, periodic_u: bool):
    """Split global edge ids into (is_u_edge, i, j) index triples."""
    ncu = n_u if periodic_u else n_u - 1
    nue = n_v * ncu
    is_u = edges < nue
    i = np.where(is_u, edges % ncu, (edges - nue) % n_u)
    j = np.where(is_u, edges // ncu, (edges - nue) // n_u)
    return is_u, i, j


def refine_crossings(field: DistanceField, tt: float,
                     edges: np.ndarray) -> np.ndarray:
    """Locate the level crossing on each cut edge to high accuracy.

    Returns (n_edges, 2) chart points.  Seam u-edges report an unwrapped u
    that may exceed the nominal domain end by less than one spacing.
    """
    n_u, n_v = field.spec.n_u, field.spec.n_v
    is_u, i, j = _decode_edges(edges, n_u, n_v, field.periodic_u)

    ua = field.u_nodes[i]
    va = field.v_nodes[j]
    du = np.where(is_u, field.h_u, 0.0)
    dv = np.where(is_u, 0.0, field.h_v)

    i1 = np.where(is_u, (i + 1) % n_u if field.periodic_u else i + 1, i)
    j1 = np.where(is_u, j, j + 1)
    f0 = field.r[i, j] - tt
    f1 = field.r[i1, j1] - tt
    if np.any(f0 * f1 > 0.0):
        raise GeometryError("edge reported as cut has same-sign endpoints")

    lo = np.zeros(edges.shape)
    hi = np.ones(edges.shape)
    flo = f0.copy()
    s = f0 / (f0 - f1)
    done = np.zeros(edges.shape, dtype=bool)

    for _ in range(_NEWTON_ITERS):
        r, fp = _r_and_dirderiv(field, ua + s * du, va + s * dv, du, dv)
        f = r - tt
        done |= np.abs(f) <= _NEWTON_TOL
        if bool(np.all(done)):
            break
        on_lo = (f < 0.0) == (flo < 0.0)
        lo = np.where(on_lo, s, lo)
        flo = np.where(on_lo, f, flo)
        hi = np.where(on_lo, hi, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_new = s - f / fp
        bad = ~np.isfinite(s_new) | (s_new <= lo) | (s_new >= hi)
        s = np.where(done, s, np.where(bad, 0.5 * (lo + hi), s_new))

    return np.stack([ua + s * du, va + s * dv], axis=-1)


def assemble_loops(seg_a: np.ndarray, seg_b: np.ndarray) -> list[np.ndarray]:
    """Stitch edge-pair segments into closed loops of edge ids."""
    n_seg = len(seg_a)
    seg_of: dict[int, list[int]] = {}
    for k in range(n_seg):
        seg_of.setdefault(int(seg_a[k]), []).append(k)
        seg_of.setdefault(int(seg_b[k]), []).append(k)
    for edge, ks in seg_of.items():
        if len(ks) != 2:
            raise GeometryError(
                f"contour edge {edge} belongs to {len(ks)} segments; the "
                "level curve is not closed inside the grid"
            )

    visited = np.zeros(n_seg, dtype=bool)
    loops: list[np.ndarray] = []
    for k0 in range(n_seg):
        if visited[k0]:
            continue
        start_edge = int(seg_a[k0])
        edges = [start_edge]
        k = k0
        enter = start_edge
        while True:
            visited[k] = True
            exit_edge = int(seg_b[k]) if int(seg_a[k]) == enter else int(seg_a[k])
            if exit_edge == start_edge:
                break
            edges.append(exit_edge)
            ka, kb = seg_of[exit_edge]
            k = kb if ka == k else ka
            enter = exit_edge
        loops.append(np.asarray(edges, dtype=np.int64))
    return loops


def _unwrap_loop(field: DistanceField, pts: np.ndarray) -> tuple[np.ndarray, int]:
    """Unwrap u along a closed loop; return (vertices, winding)."""
    if not field.periodic_u:
        return pts, 0
    (u0, u1), _ = field.surface.domain
    period = u1 - u0
    u = pts[:, 0].copy()
    du = np.diff(u)
    du -= period * np.round(du / period)
    u[1:] = u[0] + np.cumsum(du)
    # The minimal-image closing step differs from u[0] - u[-1] by exactly
    # winding * period.
    winding = int(np.round((u[-1] - u[0]) / period))
    out = pts.copy()
    out[:, 0] = u
    return out, winding


def extract_loops(field: DistanceField, tt: float) -> list[Loop]:
    """All closed components of the level {r = tt} on the field's grid."""
    kern = backend.get_kernels()
    seg_a, seg_b = kern.segment_edges(field.r, tt, field.periodic_u)
    if len(seg_a) == 0:
        return []
    all_edges = np.unique(np.concatenate([seg_a, seg_b]))
    pos = refine_crossings(field, tt, all_edges)
    pos_of = {int(e): pos[k] for k, e in enumerate(all_edges)}

    loops = []
    for edge_seq in assemble_loops(seg_a, seg_b):
        pts = np.asarray([pos_of[int(e)] for e in edge_seq])
        vertices, winding = _unwrap_loop(field, pts)
        loops.append(Loop(vertices=vertices, winding=winding))
    return loops


def project_to_level(field: DistanceField, tt: float, pts: np.ndarray,
                     iterations: int = 2) -> np.ndarray:
    """Newton-project chart points onto the level {r = tt}.

    Each iteration moves along the chart representation of the tangential
    distance gradient by -(r - tt) grad r / |grad r|^2, the first-order
    step of the constraint Newton method; two iterations take midpoint
    seeds (off by O(h^2)) below 1e-12 in r.
    """
    pts = np.asarray(pts, dtype=np.float64).copy()
    for _ in range(iterations):
        fb = radial_frames(field.surface, pts[:, 0], pts[:, 1],
                           pole=field.pole)
        scale = np.maximum(fb.normGradPr ** 2, 1e-30)
        pts -= ((fb.r - tt) / scale)[:, None] * fb.gradPr
    return pts


def augment_loop(field: DistanceField, tt: float, loop: Loop,
                 n_min: int) -> Loop:
    """Insert projected midpoints until the loop has at least n_min vertices."""
    (u0, u1), _ = field.surface.domain
    period = u1 - u0
    verts = loop.vertices
    while len(verts) < n_min:
        nxt = np.roll(verts, -1, axis=0)
        nxt[-1] = verts[0] + loop.closing_offset(period)
        mids = project_to_level(field, tt, 0.5 * (verts + nxt))
        merged = np.empty((2 * len(verts), 2))
        merged[0::2] = verts
        merged[1::2] = mids
        verts = merged
    return Loop(vertices=verts, winding=loop.winding)
