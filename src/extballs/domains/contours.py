"""Level-curve extraction for the extrinsic distance on a chart grid.

``segment_edges`` takes each cell's marching-squares case, as
``field.cell_cases`` classifies it once per radius, and emits contour
segments as pairs of global edge ids: with ``ncu`` cell columns, the
u-edge from node (i, j) to (i+1, j) is ``j * ncu + i`` and the v-edge from
(i, j) to (i, j+1) is ``n_v * ncu + j * n_u + i``; on a u-periodic grid
i+1 wraps to 0.  This module turns the segments into closed components
with accurately placed vertices:

* every cut edge gets one crossing point, refined by a safeguarded Newton
  iteration on the exact ambient distance along the edge (the grid only
  seeds the bracket, so no interpolation bias survives);
* the segments, read as a graph on the cut edges, split into closed
  components by connectivity alone; seam edges already share global ids,
  so the periodic seam needs no special casing, and no component is ever
  walked in order;
* a segment on a u-periodic chart reaches its far end at the nearest
  u-image (``segment_chords``), so vertices stay where the grid put them.

Everything downstream (boundary length, co-area and k_g sums) is a sum
over segments or samples, which does not depend on their order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ..errors import GeometryError
from ..immersion import radial_frames
from .field import DistanceField, bracketed_newton

_NEWTON_TOL = 1e-10
_NEWTON_ITERS = 5
_PROJECT_ITERS = 2


@dataclass
class Loop:
    """One closed boundary component in chart coordinates.

    ``vertices`` are the component's edge crossings (plus any inserted
    midpoints) in no particular order; ``segments`` pair vertex indices,
    one pair per cut cell (two in a saddle cell, halves of these once
    ``augment_loop`` bisects them), each in an arbitrary direction.
    Every vertex belongs to exactly two segments.
    """

    vertices: np.ndarray          # (N, 2) chart points
    segments: np.ndarray          # (N, 2) vertex index pairs

    def __len__(self) -> int:
        return len(self.vertices)


# Local edge codes: 0 = bottom, 1 = right, 2 = top, 3 = left.
# Segments of the 14 mixed marching-squares cases, in emission order; the
# saddle cases 5 and 10 get two segments each, keyed by whether the cell
# centre (the mean of its corners) is inside.
_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
    (5, True): [(0, 1), (2, 3)], (5, False): [(3, 0), (1, 2)],
    6: [(0, 2)], 7: [(2, 3)], 8: [(2, 3)], 9: [(0, 2)],
    (10, True): [(3, 0), (1, 2)], (10, False): [(0, 1), (2, 3)],
    11: [(1, 2)], 12: [(3, 1)], 13: [(0, 1)], 14: [(3, 0)],
}


def segment_edges(r: np.ndarray, t: float, periodic_u: bool,
                  case: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Emit contour segments as pairs of global edge ids over all cut cells.

    ``case`` is ``cell_cases(r, t, periodic_u)``.
    """
    n_u, n_v = r.shape
    ncu = n_u if periodic_u else n_u - 1
    nue = n_v * ncu

    i, j = np.nonzero((case > 0) & (case < 15))
    code = case[i, j]
    nxt = (i + 1) % n_u if periodic_u else i + 1
    centre_in = (r[i, j] + r[nxt, j] + r[nxt, j + 1] + r[i, j + 1]) < 4.0 * t
    # Each cut cell's bottom, right, top and left global edge ids.
    edge = np.stack([j * ncu + i, nue + j * n_u + nxt,
                     (j + 1) * ncu + i, nue + j * n_u + i], axis=1)

    seg_a: list[np.ndarray] = []
    seg_b: list[np.ndarray] = []
    for key, pairs in _SEGMENTS.items():
        c, centre = key if isinstance(key, tuple) else (key, None)
        sel = code == c
        if centre is not None:
            sel &= centre_in == centre
        for la, lb in pairs:
            seg_a.append(edge[sel, la])
            seg_b.append(edge[sel, lb])
    return np.concatenate(seg_a), np.concatenate(seg_b)


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


def extract_loops(field: DistanceField, tt: float,
                  case: np.ndarray) -> list[Loop]:
    """All closed components of the level {r = tt} on the field's grid.

    ``case`` is ``cell_cases(field.r, tt, field.periodic_u)``.
    """
    seg_a, seg_b = segment_edges(field.r, tt, field.periodic_u, case)
    if len(seg_a) == 0:
        return []
    edges, ends = np.unique(np.concatenate([seg_a, seg_b]),
                            return_inverse=True)
    degree = np.bincount(ends, minlength=len(edges))
    if np.any(degree != 2):
        k = int(np.argmax(degree != 2))
        raise GeometryError(
            f"contour edge {edges[k]} belongs to {degree[k]} segments; the "
            "level curve is not closed inside the grid"
        )
    pos = refine_crossings(field, tt, edges)
    segments = ends.reshape(2, -1).T
    n_comp, label = connected_components(
        coo_matrix((np.ones(len(segments)), (segments[:, 0], segments[:, 1])),
                   shape=(len(edges), len(edges))), directed=False)

    # Each component numbers its own vertices from 0, in edge-id order.
    seg_label = label[segments[:, 0]]
    local = np.empty(len(edges), dtype=np.int64)
    loops = []
    for comp in range(n_comp):
        mine = label == comp
        local[mine] = np.arange(np.count_nonzero(mine))
        loops.append(Loop(vertices=pos[mine],
                          segments=local[segments[seg_label == comp]]))
    return loops


def segment_chords(field: DistanceField, vertices: np.ndarray,
                   segments: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start point and displacement of each segment.

    On a u-periodic chart the displacement reaches the far end at its
    nearest u-image, so a segment across the seam stays short.
    """
    start = vertices[segments[:, 0]]
    d = vertices[segments[:, 1]] - start
    if field.periodic_u:
        (u0, u1), _ = field.surface.domain
        d[:, 0] -= (u1 - u0) * np.round(d[:, 0] / (u1 - u0))
    return start, d


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
    """Insert projected midpoints until the loop has at least n_min vertices.

    Each pass bisects every segment.
    """
    while len(loop) < n_min:
        start, d = segment_chords(field, loop.vertices, loop.segments)
        mids = project_to_level(field, tt, start + 0.5 * d)
        n, m = len(loop), len(loop.segments)
        new = np.arange(n, n + m)
        a, b = loop.segments.T
        loop = Loop(vertices=np.concatenate([loop.vertices, mids]),
                    segments=np.concatenate([np.stack([a, new], axis=1),
                                             np.stack([new, b], axis=1)]))
    return loop
