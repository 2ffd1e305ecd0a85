"""Level-curve extraction for the extrinsic distance on a chart grid.

``segment_edges`` reads each cell's marching-squares case from
``field.cell_cases`` and emits contour segments as pairs of global edge
ids: with ``ncu`` cell columns, the u-edge from node (i, j) to (i+1, j)
is ``j * ncu + i`` and the v-edge from (i, j) to (i, j+1) is
``n_v * ncu + j * n_u + i``; on a u-periodic grid i+1 wraps to 0.  This
module turns the segments into closed loops with accurately placed
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

from ..errors import GeometryError
from ..immersion import radial_frames
from .field import DistanceField, bracketed_newton, cell_cases, corner_views

_NEWTON_TOL = 1e-10
_NEWTON_ITERS = 5
_PROJECT_ITERS = 2


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


# Local edge codes: 0 = bottom, 1 = right, 2 = top, 3 = left.
# Segment table for the 14 mixed marching-squares cases; saddle cases 5 and
# 10 are resolved by the cell-center value and get two segments.
_CASE_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 4: [(1, 2)], 8: [(2, 3)],
    3: [(3, 1)], 6: [(0, 2)], 12: [(3, 1)], 9: [(0, 2)],
    14: [(3, 0)], 13: [(0, 1)], 11: [(1, 2)], 7: [(2, 3)],
}
_SADDLE = {
    (5, True): [(0, 1), (2, 3)],
    (5, False): [(3, 0), (1, 2)],
    (10, True): [(3, 0), (1, 2)],
    (10, False): [(0, 1), (2, 3)],
}


def segment_edges(r: np.ndarray, t: float,
                  periodic_u: bool) -> tuple[np.ndarray, np.ndarray]:
    """Emit contour segments as pairs of global edge ids over all cut cells."""
    n_u, n_v = r.shape
    ncu = n_u if periodic_u else n_u - 1
    nue = n_v * ncu

    case = cell_cases(r, t, periodic_u)
    c0, c1, c2, c3 = corner_views(r, periodic_u)
    center_in = (c0 + c1 + c2 + c3) < 4.0 * t

    cut_i, cut_j = np.nonzero((case > 0) & (case < 15))
    seg_a: list[np.ndarray] = []
    seg_b: list[np.ndarray] = []

    def global_edge(local: int, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        if local == 0:
            return jj * ncu + ii
        if local == 2:
            return (jj + 1) * ncu + ii
        if local == 3:
            return nue + jj * n_u + ii
        nxt = (ii + 1) % n_u if periodic_u else ii + 1
        return nue + jj * n_u + nxt

    cases_here = case[cut_i, cut_j]
    centers_here = center_in[cut_i, cut_j]
    for code in np.unique(cases_here):
        sel = cases_here == code
        ii, jj = cut_i[sel], cut_j[sel]
        if code in (5, 10):
            for flag in (True, False):
                fsel = centers_here[sel] == flag
                for la, lb in _SADDLE[(int(code), flag)]:
                    seg_a.append(global_edge(la, ii[fsel], jj[fsel]))
                    seg_b.append(global_edge(lb, ii[fsel], jj[fsel]))
        else:
            for la, lb in _CASE_SEGMENTS[int(code)]:
                seg_a.append(global_edge(la, ii, jj))
                seg_b.append(global_edge(lb, ii, jj))
    if not seg_a:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    return (np.concatenate(seg_a).astype(np.int64),
            np.concatenate(seg_b).astype(np.int64))


def _decode_edges(edges: np.ndarray, n_u: int, n_v: int, periodic_u: bool):
    """Split global edge ids into is_u_edge and end nodes (i, j), (i1, j1)."""
    ncu = n_u if periodic_u else n_u - 1
    nue = n_v * ncu
    is_u = edges < nue
    i = np.where(is_u, edges % ncu, (edges - nue) % n_u)
    j = np.where(is_u, edges // ncu, (edges - nue) // n_u)
    i1 = np.where(is_u, (i + 1) % n_u if periodic_u else i + 1, i)
    j1 = np.where(is_u, j, j + 1)
    return is_u, i, j, i1, j1


def refine_crossings(field: DistanceField, tt: float,
                     edges: np.ndarray) -> np.ndarray:
    """Locate the level crossing on each cut edge to high accuracy.

    Returns (n_edges, 2) chart points.  Seam u-edges report an unwrapped u
    that may exceed the nominal domain end by less than one spacing.
    """
    n_u, n_v = field.spec.n_u, field.spec.n_v
    is_u, i, j, i1, j1 = _decode_edges(edges, n_u, n_v, field.periodic_u)

    ua = field.u_nodes[i]
    va = field.v_nodes[j]
    du = np.where(is_u, field.h_u, 0.0)
    dv = np.where(is_u, 0.0, field.h_v)

    f0 = field.r[i, j] - tt
    f1 = field.r[i1, j1] - tt
    if np.any(f0 * f1 > 0.0):
        raise GeometryError("edge reported as cut has same-sign endpoints")

    s = bracketed_newton(field, tt, ua, va, du, dv, 0.0, 1.0, f0, f1,
                         iters=_NEWTON_ITERS, tol=_NEWTON_TOL)
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
    seg_a, seg_b = segment_edges(field.r, tt, field.periodic_u)
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


def project_to_level(field: DistanceField, tt, pts: np.ndarray) -> np.ndarray:
    """Newton-project chart points onto the level {r = tt}.

    ``tt`` is one level for all points or an array of one level per point.

    Each iteration moves along the chart representation of the tangential
    distance gradient by -(r - tt) grad r / |grad r|^2, the first-order
    step of the constraint Newton method; two iterations take midpoint
    seeds (off by O(h^2)) below 1e-12 in r.
    """
    pts = np.asarray(pts, dtype=np.float64).copy()
    for _ in range(_PROJECT_ITERS):
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
