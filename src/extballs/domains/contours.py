"""Level-curve extraction for the extrinsic distance on a chart grid.

``solve_level`` takes the cells the level {r = tt} cuts, as
``field.level_cells`` finds them in the field's bucketed band, and emits
contour segments as pairs of global edge ids (the numbering of
``domains.field``).  It then solves each cut edge's crossing once, by a
safeguarded Newton iteration on the exact ambient distance along the
edge (the grid only seeds the bracket, so no interpolation bias
survives).  The contours and the ball quadrature both read that one
`Level`:

* the segments, read as a graph on the cut edges, split into closed
  components by connectivity alone (``level_components``, labelled by
  ``component_labels``); seam edges already share global ids, so the
  periodic seam needs no special casing, and no component is ever
  walked in order.  The crossings, segments and labels are the ball's
  one boundary set, which ``bisect_boundary`` refines in place of any
  per-component object;
* each cut cell reads its sides' crossings back as one table
  (``Level.cell_edges``), so the quadrature needs no second solve;
* a segment on a u-periodic chart reaches its far end at the nearest
  u-image (``segment_chords``), so vertices stay where the grid put them.

Everything downstream (boundary length, co-area and k_g sums) is a sum
over segments or samples, which does not depend on their order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError
from ..immersion import radial_frames
from .field import CELL_SIDES, CutCells, DistanceField, bracketed_newton

_NEWTON_TOL = 1e-10
_NEWTON_ITERS = 5
_PROJECT_ITERS = 2


@dataclass
class Level:
    """The level {r = tt} on a field's grid: cut cells, segments, crossings.

    ``edges`` are the sorted global ids of the cut edges; per edge,
    ``s`` is the crossing's parameter from the edge's first node, ``pos``
    its chart point and ``located`` whether r there is within
    1e-8 of tt (`bracketed_newton`).  ``segments`` pairs indices into
    ``edges``, one pair per contour segment.
    """

    tt: float
    cells: CutCells
    edges: np.ndarray             # (n_edges,)
    s: np.ndarray                 # (n_edges,)
    pos: np.ndarray               # (n_edges, 2)
    located: np.ndarray           # (n_edges,)
    segments: np.ndarray          # (n_segments, 2)

    def cell_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per cut cell and side (``CELL_SIDES``): s and located.

        A side the level does not cut reads NaN and False.
        """
        inside = self.cells.corners < self.tt
        a, b = np.array(CELL_SIDES).T
        cut = inside[:, a] != inside[:, b]
        k = np.searchsorted(self.edges, self.cells.edges[cut])
        s = np.full(cut.shape, np.nan)
        s[cut] = self.s[k]
        located = np.zeros(cut.shape, dtype=bool)
        located[cut] = self.located[k]
        return s, located


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


def segment_edges(cells: CutCells,
                  t: float) -> tuple[np.ndarray, np.ndarray]:
    """Emit contour segments as pairs of global edge ids over cut cells."""
    c = cells.corners
    centre_in = (c[:, 0] + c[:, 1] + c[:, 2] + c[:, 3]) < 4.0 * t
    seg_a: list[np.ndarray] = []
    seg_b: list[np.ndarray] = []
    for key, pairs in _SEGMENTS.items():
        code, centre = key if isinstance(key, tuple) else (key, None)
        sel = cells.case == code
        if centre is not None:
            sel &= centre_in == centre
        for la, lb in pairs:
            seg_a.append(cells.edges[sel, la])
            seg_b.append(cells.edges[sel, lb])
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


def refine_crossings(field: DistanceField, tt: float, edges: np.ndarray):
    """Locate the level crossing on each cut edge to high accuracy.

    Returns the parameter s of each crossing from the edge's first node,
    its (n_edges, 2) chart point and whether it is located (see
    `bracketed_newton`).  Seam u-edges report an unwrapped u that may
    exceed the nominal domain end by less than one spacing.
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

    s, located = bracketed_newton(field, tt, ua, va, du, dv, 0.0, 1.0, f0,
                                  f1, iters=_NEWTON_ITERS, tol=_NEWTON_TOL)
    return s, np.stack([ua + s * du, va + s * dv], axis=-1), located


def solve_level(field: DistanceField, tt: float, cells: CutCells) -> Level:
    """Segments and edge crossings of the level {r = tt} on its cut cells.

    ``cells`` is ``level_cells(field, tt)``; each cut edge is solved once.
    """
    if len(cells) == 0:
        return Level(tt=tt, cells=cells, edges=np.zeros(0, dtype=np.int64),
                     s=np.zeros(0), pos=np.zeros((0, 2)),
                     located=np.zeros(0, dtype=bool),
                     segments=np.zeros((0, 2), dtype=np.int64))
    seg_a, seg_b = segment_edges(cells, tt)
    edges, ends = np.unique(np.concatenate([seg_a, seg_b]),
                            return_inverse=True)
    s, pos, located = refine_crossings(field, tt, edges)
    return Level(tt=tt, cells=cells, edges=edges, s=s, pos=pos,
                 located=located, segments=ends.reshape(2, -1).T)


def component_labels(n: int, pairs: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the graph on n nodes with edges ``pairs``.

    Returns the component count and each node's component, numbered in
    the order of the components' smallest nodes.  Every node points to
    a smaller-or-equal node, and a root (a node that points to itself)
    is its tree's smallest node.  Each round hooks the root of every
    edge end to the smaller of the two ends' roots, then jumps pointers
    until every node points at its root; it ends when no edge joins two
    trees.  Each tree that an edge still joins to another merges in a
    round, so the rounds number O(log n).
    """
    parent = np.arange(n)
    a, b = pairs[:, 0], pairs[:, 1]
    while True:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not np.any(split):
            break
        ra, rb = ra[split], rb[split]
        low = np.minimum(ra, rb)
        np.minimum.at(parent, ra, low)
        np.minimum.at(parent, rb, low)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    roots, label = np.unique(parent, return_inverse=True)
    return len(roots), label


def level_components(level: Level) -> tuple[int, np.ndarray]:
    """Closed components of the level {r = tt} on the field's grid.

    ``level`` is ``solve_level(field, tt, level_cells(field, tt))``.
    Returns the component count and each crossing's component
    (`component_labels`); raises `GeometryError` when a crossing does not
    belong to exactly two segments.
    """
    edges, segments = level.edges, level.segments
    degree = np.bincount(segments.ravel(), minlength=len(edges))
    if np.any(degree != 2):
        k = int(np.argmax(degree != 2))
        raise GeometryError(
            f"contour edge {edges[k]} belongs to {degree[k]} segments; the "
            "level curve is not closed inside the grid"
        )
    return component_labels(len(edges), segments)


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


def bisect_boundary(field: DistanceField, tt: float, vertices: np.ndarray,
                    segments: np.ndarray, label: np.ndarray,
                    n_min: int) -> tuple[np.ndarray, np.ndarray]:
    """Insert projected midpoints until each component has n_min vertices.

    ``vertices`` are chart points with their components ``label``, and
    ``segments`` pair vertex indices.  Each pass bisects every segment
    of each component that is still short, in one projection.  Returns
    the vertices and segments grouped by component (a stable sort):
    within a component come its first vertices, then each pass's
    midpoints, and each pass lists a component's first halves before its
    second halves.
    """
    while True:
        short = np.bincount(label) < n_min
        split = short[label[segments[:, 0]]]
        if not np.any(split):
            break
        cut = segments[split]
        start, d = segment_chords(field, vertices, cut)
        mids = project_to_level(field, tt, start + 0.5 * d)
        a, b = cut.T
        new = np.arange(len(vertices), len(vertices) + len(mids))
        vertices = np.concatenate([vertices, mids])
        label = np.concatenate([label, label[a]])
        segments = np.concatenate([segments[~split],
                                   np.stack([a, new], axis=1),
                                   np.stack([new, b], axis=1)])
    order = np.argsort(label, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    seg_order = np.argsort(label[segments[:, 0]], kind="stable")
    return vertices[order], rank[segments[seg_order]]
