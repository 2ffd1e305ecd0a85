"""Area quadrature over extrinsic balls on a chart grid.

``region_integral`` integrates the three densities of ``CHANNELS`` over
{r < t}, each against the area element sqrt(det g): 1 (the area), |B|^2
(the total extrinsic curvature) and the Gauss curvature K (which feeds
Gauss-Bonnet).  It is a sum over grid cells, read from the `Level` that
``extract_ball`` solves once per radius and shares with the contours:

* cells fully inside the ball use per-cell Gauss-Legendre 3x3 integrals,
  cached on the field (``DistanceField.cell_integrals``) the first time
  any ball is integrated, because the same cells are re-summed for every
  radius in a schedule (the integrands are smooth on a cell, and
  against 4x4 the 3x3 rule moves the shipped configs' ball totals by
  at most 6e-12 relative wherever the total is not zero in closed form,
  at 9 instead of 16 frame evaluations per cell).  The cache holds the
  reached cells in ``DistanceField.cell_order``, bucket-major by their
  corner maximum of r, so the cells inside {r < t} are the whole
  buckets below t's own plus the cells of t's bucket whose maximum is
  below t (`field.cells_below`), and each radius sums those with
  ``np.sum`` (pairwise, no cumulative sum).  Each cached cell reads the
  integrals of the cell that the chart's ``ParametricSurface.symmetry``
  folds it to (`_fold`: its row's cell at u = 0, its octant image, or
  itself), and only the distinct folded cells are evaluated;
* each cut cell is split at the level curve's two boundary crossings
  into three pieces along the grid axis best aligned with the curve's
  graph direction, and every piece is integrated by four 4-point
  Gauss-Legendre strips across the cell; a strip covers the whole cell,
  nothing, or its inside part up to a crossing that a safeguarded Newton
  iteration locates on the exact ambient distance, so the only error
  left is the smooth-quadrature remainder.  A cell's crossings are
  the points on its two cut sides in a per-side table: the level's
  edge solve for a grid cell, one Newton call per depth for subdivided
  children.  Frames run only at points of positive weight;
* cells where the strip picture fails (saddles of r, curve tangent to a
  strip) subdivide recursively, re-trying the slicer on each child and
  integrating children that fall wholly inside with the full-cell rule,
  with a linear marching-squares polygon estimate at the maximum depth;
* where a chart mirror fixes the pole (``DistanceField.mirrors``), the
  ball is symmetric under it, so only the cut cells of the mirrors'
  fundamental domain are integrated, each weighted by the size of its
  orbit (`_orbit_weights`): 2 per mirror that moves it, 1 on a mirror's
  own row or column.  The node values of r are symmetric only to
  rounding, so a level whose cut-cell set is not closed under the
  mirrors falls back to weight 1 on every cut cell.

Features of the region smaller than one grid cell (for example an island
of the outside region just after a critical level) are resolved only once
they span a cell; the radius schedule's critical-value skipping keeps
such levels out of reported results.
"""

from __future__ import annotations

import numpy as np

from ..immersion import BATCH_POINTS, FrameBatch, frames
from .field import (CELL_SIDES, CutCells, DistanceField, bracketed_newton,
                    cells_below)


def _unit_gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


_X4, _W4 = _unit_gauss_legendre(4)
_X3, _W3 = _unit_gauss_legendre(3)

_MAX_DEPTH = 6
_STRIP_TOL = 1e-9

CHANNELS = ("one", "normBsq", "K")


def _densities(fb: FrameBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CHANNELS densities 1, |B|^2 and K, each times sqrt(det g)."""
    w = np.sqrt(fb.detg)
    return w, fb.normBsq * w, fb.K * w


def ensure_cell_cache(field: DistanceField) -> dict[str, np.ndarray]:
    """Full-cell GL3x3 integrals of every channel, by channel name.

    Cut-cell strips (`integrate_cut_cells`) keep their 4-point rule;
    only whole cells use this cache.

    Only cells with at least one corner below t_max can ever be fully
    inside a requested ball, so each channel holds those cells alone, in
    ``field.cell_order``.  The first call fills ``field.cell_integrals``;
    later calls reuse it.  Each cell reads the integrals of its `_fold`
    image, and the distinct images are integrated once each, in
    row-major order, in batches of ``BATCH_POINTS`` points run in the
    caller.
    """
    if field.cell_integrals is None:
        keys, u_nodes = _fold(field)
        index, present = _distinct(keys)
        qi, qj = np.divmod(present, field.spec.n_v - 1)
        u0, v0 = u_nodes[qi], field.v_nodes[qj]
        step = BATCH_POINTS // _X3.size ** 2
        parts = [_full_cells(field, u0[s:s + step], v0[s:s + step],
                             field.h_u, field.h_v)
                 for s in range(0, len(u0), step)]
        channels = zip(*parts) if parts else [[np.zeros(0)]] * len(CHANNELS)
        field.cell_integrals = tuple(np.concatenate(channel)[index]
                                     for channel in channels)
    return dict(zip(CHANNELS, field.cell_integrals))


def _fold(field: DistanceField) -> tuple[np.ndarray, np.ndarray]:
    """Per reached cell, the flat id of the cell whose integrals it reads,
    and the u of each cell column.  By the chart's ``symmetry``:

    * None: each cell reads itself;
    * ``"u_shift"``: the densities depend on v alone, so each cell reads
      its row's cell in column 0, integrated at u = 0;
    * ``"dihedral"``: the nodes sit at half offsets on (-a, a), so cell
      column i and column m_u - 1 - i (of m_u) are mirror images under
      u -> -u, and likewise for rows; when the cell grid is square
      (m_u == m_v) and the domain is too, u <-> v maps cell (i, j) to
      (j, i).  Each cell reads its image in the quadrant of the lowest
      ceil(m / 2) indices on each axis, and in that quadrant's upper
      triangle i <= j (one octant) when the swap applies.
    """
    m_u, m_v = field.cell_shape
    symmetry = field.surface.symmetry
    if symmetry == "u_shift":
        return field.cell_order % m_v, np.zeros(1)
    if symmetry is None:
        return field.cell_order, field.u_nodes
    i, j = np.divmod(field.cell_order, m_v)
    fi = np.minimum(i, m_u - 1 - i)
    fj = np.minimum(j, m_v - 1 - j)
    (_, u1), (_, v1) = field.surface.domain
    if m_u == m_v and u1 == v1:
        fi, fj = np.minimum(fi, fj), np.maximum(fi, fj)
    return fi * m_v + fj, field.u_nodes


def _distinct(keys: np.ndarray):
    """(index, present) for non-negative integer keys.

    ``present`` lists the distinct keys in increasing order and
    ``index[k]`` is the position of ``keys[k]`` in it.
    """
    size = int(keys.max(initial=-1)) + 1
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    present = np.flatnonzero(seen)
    slot = np.zeros(size, dtype=np.int64)
    slot[present] = np.arange(len(present))
    return slot[keys], present


# A cell's corners c0..c3 on the unit square, the start and end corner
# of each side (``CELL_SIDES``), and the side midpoints and centre of a
# 3x3 table of half-step nodes.
_CORNERS = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
_SIDE_A, _SIDE_B = np.array(CELL_SIDES).T
_MIDPOINTS = np.array([[1, 0], [1, 2], [0, 1], [2, 1], [1, 1]])


def _cut_sides(f: np.ndarray) -> np.ndarray:
    """(n, 4) mask of the sides whose corner values f change sign."""
    inside = f < 0
    return inside[:, _SIDE_A] != inside[:, _SIDE_B]


def _side_lines(u0, v0, hu: float, hv: float):
    """Per cell and side, the start point (base_u, base_v), each (n, 4),
    and the step (du, dv), each (4,), of the side's segment."""
    (au, av), (bu, bv) = _CORNERS[_SIDE_A].T, _CORNERS[_SIDE_B].T
    return (u0[:, None] + au * hu, v0[:, None] + av * hv, (bu - au) * hu,
            (bv - av) * hv)


def _side_crossings(field: DistanceField, tt: float, u0, v0, hu: float,
                    hv: float, f: np.ndarray):
    """The side table of cells with corner values f: per cell and side,
    the crossing s and whether it is located.

    The cut sides of the non-saddle cells are solved in one
    `bracketed_newton` call; every other side reads NaN and False.
    """
    cut = _cut_sides(f)
    cut &= (np.count_nonzero(cut, axis=1) == 2)[:, None]
    s = np.full(cut.shape, np.nan)
    located = np.zeros(cut.shape, dtype=bool)
    rows, sides = np.nonzero(cut)
    base_u, base_v, du, dv = _side_lines(u0, v0, hu, hv)
    s[cut], located[cut] = bracketed_newton(
        field, tt, base_u[cut], base_v[cut], du[sides], dv[sides], 0.0, 1.0,
        f[rows, _SIDE_A[sides]], f[rows, _SIDE_B[sides]], iters=4,
        tol=_STRIP_TOL)
    return s, located


def _slice_cells(field: DistanceField, tt: float, u0, v0, hu: float, hv: float,
                 f: np.ndarray, side_s: np.ndarray, side_located: np.ndarray):
    """Integrate cut cells by Gauss-Legendre strips between the crossings.

    The curve enters and leaves a non-saddle cut cell at two refined
    boundary crossings, at A <= B along the cell's along axis (the grid
    axis best aligned with the curve's graph direction).  The cell splits
    into three along pieces [a0, A], [A, B] and [B, a0 + h], each
    integrated by four 4-point strips across the cell.  Between A and B
    every strip meets the curve exactly once, and its across interval is
    the Newton-located inside part; beside the crossings the cell is
    uniformly full or empty, so a strip's across interval is [0, 1] or
    empty.  Splitting at the crossings is what keeps the rule high-order:
    slicing the whole cell instead puts an integrable kink under the
    along rule wherever the curve exits a side.  All three pieces of all
    cells share one frame evaluation, made only at the points of positive
    weight: a side piece of zero width or an empty across interval weighs
    zero, so at most 32 of a cell's 48 points are evaluated.  Those
    points go to `frames` in slices of at most ``BATCH_POINTS // 2``
    (the balls of a schedule are extracted in two or more processes at
    once), and the densities are joined before the per-cell sums, so the
    result is bitwise that of one frame batch.

    ``f`` holds the cells' corner values of r - tt, (n, 4), and
    ``side_s`` and ``side_located`` their side table (``CELL_SIDES``):
    per side, the crossing's parameter and whether it is located.  The
    two crossings of a cell are the points on its two cut sides.
    Returns (contrib: one (n,) array per channel, ok: (n,) bool); the
    cells flagged not-ok (saddles, unlocated crossings, strips whose
    three-point sign pattern is inconsistent with one crossing) contribute
    zero and are the caller's to subdivide.
    """
    n = len(u0)
    contrib = tuple(np.zeros(n) for _ in CHANNELS)
    cut = _cut_sides(f)
    ok = ((np.count_nonzero(cut, axis=1) == 2)
          & np.all(side_located | ~cut, axis=1))
    sel = np.nonzero(ok)[0]
    if len(sel) == 0:
        return contrib, ok

    base_u, base_v, step_u, step_v = _side_lines(u0[sel], v0[sel], hu, hv)
    two = cut[sel]
    cross_u = (base_u + side_s[sel] * step_u)[two].reshape(-1, 2)
    cross_v = (base_v + side_s[sel] * step_v)[two].reshape(-1, 2)
    in00, in10, in11, in01 = (f[sel] < 0).T
    f00, f10, f11, f01 = f[sel].T
    a_u = (f10 + f11 - f00 - f01) / (2.0 * hu)
    a_v = (f01 + f11 - f00 - f10) / (2.0 * hv)
    along_u = np.abs(a_v) >= np.abs(a_u)

    def uv(along, across):
        """Chart (u, v) of a point given as (along, across) per cell."""
        axis = along_u.reshape((-1,) + (1,) * (np.ndim(along) - 1))
        return np.where(axis, along, across), np.where(axis, across, along)

    # Cell origin and side in (along, across), the crossings' span, and
    # whether the cell's low and high ends along the axis are inside.
    a0, c0 = uv(u0[sel], v0[sel])
    ha, hc = np.where(along_u, hu, hv), np.where(along_u, hv, hu)
    AB = np.sort(np.where(along_u[:, None], cross_u, cross_v), axis=1)
    A, B = AB[:, 0], AB[:, 1]
    lo_full = np.where(along_u, in00 & in01, in00 & in10)
    hi_full = np.where(along_u, in10 & in11, in01 & in11)

    # Middle piece: one crossing per strip across the cell.
    q = A[:, None] + (B - A)[:, None] * _X4[None, :]
    bu, bv = uv(q, c0[:, None])
    du, dv = uv(0.0 * hc, hc)
    du, dv = du[:, None], dv[:, None]
    f_a, f_b, f_m = field.eval_r(
        np.stack([bu, bu + du, bu + 0.5 * du]),
        np.stack([bv, bv + dv, bv + 0.5 * dv])) - tt
    in_a, in_b, in_m = f_a < 0, f_b < 0, f_m < 0
    cell_bad = np.any(in_a == in_b, axis=1)

    lower = in_a != in_m
    lo = np.where(lower, 0.0, 0.5)
    hi = np.where(lower, 0.5, 1.0)
    flo = np.where(lower, f_a, f_m)
    fhi = np.where(lower, f_m, f_b)
    s, nok = bracketed_newton(field, tt, bu, bv, du, dv, lo, hi, flo, fhi,
                              iters=3, tol=_STRIP_TOL)
    cell_bad |= np.any(~nok, axis=1)

    # Pieces [a0, A], [A, B], [B, a0 + h]: along start and width, and per
    # strip the across interval [s_lo, s_lo + span].
    start = np.stack([a0, A, B], axis=1)
    width = np.stack([A - a0, B - A, a0 + ha - B], axis=1)
    zero = np.zeros_like(s)
    mid_lo = np.where(in_a, 0.0, s)
    s_lo = np.stack([zero, mid_lo, zero], axis=1)
    span = np.stack([zero + lo_full[:, None], np.where(in_a, s, 1.0) - mid_lo,
                     zero + hi_full[:, None]], axis=1)

    q = start[..., None] + width[..., None] * _X4
    nodes_s = s_lo[..., None] + span[..., None] * _X4
    w = ((width[..., None] * _W4)[..., None]
         * hc[:, None, None, None] * span[..., None] * _W4)
    NU, NV = uv(q[..., None] + 0.0 * nodes_s,
                c0[:, None, None, None] + hc[:, None, None, None] * nodes_s)
    live = w != 0.0
    NU, NV = NU[live], NV[live]
    step = BATCH_POINTS // 2
    parts = [_densities(frames(field.surface, NU[s:s + step],
                               NV[s:s + step]))
             for s in range(0, len(NU), step)]
    for out, dens in zip(contrib, zip(*parts)):
        weighted = np.zeros(w.shape)
        weighted[live] = np.concatenate(dens) * w[live]
        out[sel] = np.sum(weighted, axis=(1, 2, 3))

    ok[sel] &= ~cell_bad
    for out in contrib:
        out[~ok] = 0.0
    return contrib, ok


def _full_cells(field: DistanceField, u0, v0, hu: float,
                hv: float) -> tuple[np.ndarray, ...]:
    """GL3x3 integrals per channel of whole (sub)cells with origins u0, v0.

    One product per channel weights all the cells' pointwise densities,
    so the integrals are bitwise those of one frame batch.
    """
    x, w = _X3, _W3
    wgrid = (w[:, None] * w[None, :]).ravel() * hu * hv
    ugrid = (hu * x)[:, None].repeat(len(x), axis=1).ravel()
    vgrid = (hv * x)[None, :].repeat(len(x), axis=0).ravel()
    dens = _densities(frames(field.surface, u0[:, None] + ugrid[None, :],
                             v0[:, None] + vgrid[None, :]))
    return tuple(d @ wgrid for d in dens)


_POLY_EDGES = ((0, 1), (1, 2), (2, 3), (3, 0))


def _terminal_polygon(fc: np.ndarray) -> float:
    """Inside-area fraction of a cut terminal cell by linear marching clip.

    fc holds the four corner values of r - tt, of mixed sign, in the
    conventional corner order.  Saddle configurations get the half-cell
    estimate; terminal saddles only occur next to a saddle point of r
    and contribute at most a few cells of size (h / 64)^2.
    """
    inside = fc < 0.0
    if np.count_nonzero(inside) == 2 and inside[0] == inside[2]:
        return 0.5
    poly: list[np.ndarray] = []
    for a, b in _POLY_EDGES:
        if inside[a]:
            poly.append(_CORNERS[a])
        if inside[a] != inside[b]:
            s = fc[a] / (fc[a] - fc[b])
            poly.append(_CORNERS[a] + s * (_CORNERS[b] - _CORNERS[a]))
    pts = np.asarray(poly)
    x, y = pts[:, 0], pts[:, 1]
    return float(0.5 * np.abs(np.dot(x, np.roll(y, -1))
                              - np.dot(y, np.roll(x, -1))))


def integrate_cut_cells(field: DistanceField, tt: float, cells: CutCells,
                        edge_s: np.ndarray, edge_located: np.ndarray,
                        weight: np.ndarray | None = None) -> list[float]:
    """Integrate each channel over the inside part of the level's cut cells.

    ``cells`` are the level's `CutCells`, whose corners give the cells'
    node values, and ``edge_s`` and ``edge_located`` are their side table
    (``Level.cell_edges``).  Subdivided children solve their own, one
    `bracketed_newton` call per depth (`_side_crossings`).

    ``weight`` (None: 1 each) scales each cell's contribution, its
    children's and its terminal polygon's included, before the sums; a
    cell of weight 0 is not integrated at all.
    """
    if weight is None:
        weight = np.ones(len(cells))
    keep = weight != 0.0
    ci, cj = np.divmod(cells.ids[keep], field.spec.n_v - 1)
    u0 = field.u_nodes[ci]
    v0 = field.v_nodes[cj]
    f = cells.corners[keep] - tt
    side_s, side_located = edge_s[keep], edge_located[keep]
    weight = weight[keep]

    totals = [0.0 for _ in CHANNELS]
    hu, hv = field.h_u, field.h_v
    for depth in range(_MAX_DEPTH + 1):
        if len(u0) == 0:
            return totals
        contrib, ok = _slice_cells(field, tt, u0, v0, hu, hv, f, side_s,
                                   side_located)
        totals = [total + float(np.sum(part[ok] * weight[ok]))
                  for total, part in zip(totals, contrib)]
        if bool(np.all(ok)) or depth == _MAX_DEPTH:
            break
        # Subdivide the cells the slicer rejected: five fresh evaluations
        # per cell (side midpoints and centre) complete a 3x3 table of
        # half-step node values; child k has its origin at half-step
        # corner k and reads its corners from the table.
        w = np.nonzero(~ok)[0]
        pu, pv = u0[w], v0[w]
        hu, hv = 0.5 * hu, 0.5 * hv
        nodes = np.empty((len(w), 3, 3))
        nodes[:, 2 * _CORNERS[:, 0], 2 * _CORNERS[:, 1]] = f[w]
        mi, mj = _MIDPOINTS.T
        nodes[:, mi, mj] = field.eval_r(pu[:, None] + mi * hu,
                                        pv[:, None] + mj * hv) - tt
        cu = np.concatenate([pu + a * hu for a, _ in _CORNERS])
        cv = np.concatenate([pv + b * hv for _, b in _CORNERS])
        fc = np.concatenate([nodes[:, a + _CORNERS[:, 0], b + _CORNERS[:, 1]]
                             for a, b in _CORNERS])
        cw = np.tile(weight[w], len(_CORNERS))

        c_in = np.all(fc < 0, axis=1)
        if np.any(c_in):
            full = _full_cells(field, cu[c_in], cv[c_in], hu, hv)
            totals = [total + float(np.sum(part * cw[c_in]))
                      for total, part in zip(totals, full)]
        keep = ~c_in & ~np.all(fc >= 0, axis=1)
        u0, v0, f, weight = cu[keep], cv[keep], fc[keep], cw[keep]
        side_s, side_located = _side_crossings(field, tt, u0, v0, hu, hv, f)

    # Terminal estimate for whatever survived to the depth cap.
    left = np.nonzero(~ok)[0]
    if len(left):
        um = u0[left] + 0.5 * hu
        vm = v0[left] + 0.5 * hv
        dens = _densities(frames(field.surface, um, vm))
        for k, idx in enumerate(left):
            frac = _terminal_polygon(f[idx]) * hu * hv
            totals = [total + frac * float(d[k]) * float(weight[idx])
                      for total, d in zip(totals, dens)]
    return totals


def region_integral(field: DistanceField, tt: float,
                    level) -> dict[str, float]:
    """Integrals of the CHANNELS densities over the extrinsic ball {r < tt}.

    ``level`` is the `contours.Level` of tt.  The cells fully inside are
    the cached cells whose corner maximum is below tt: the whole buckets
    below tt's own, summed as one slice, plus the part of tt's bucket
    (`field.cells_below`).  The cut cells are the level's, each weighted
    by `_orbit_weights`: where the field's mirrors fix the pole, only the
    cut cells of their fundamental domain are integrated, each counted
    once per cell of its orbit.
    """
    cache = ensure_cell_cache(field)
    whole, part = cells_below(field, tt)
    cut = integrate_cut_cells(field, tt, level.cells, *level.cell_edges(),
                              _orbit_weights(field, level.cells.ids))
    return {name: float(np.sum(cache[name][:whole])
                        + np.sum(cache[name][part])) + piece
            for name, piece in zip(CHANNELS, cut)}


def _orbit_weights(field: DistanceField, ids: np.ndarray):
    """Per cut cell (flat ``ids``, ascending), its weight under the
    field's mirrors, or None when every cell weighs 1.

    A mirror that fixes the pole maps the ball to itself, so the cells
    of one orbit hold equal integrals.  On each such axis, cell k of m
    and its image m - 1 - k are one orbit: the cell with k < m - 1 - k
    weighs 2, a cell on the mirror (k = m - 1 - k) weighs 1 and the
    image weighs 0; the weights of the two axes multiply.  The node
    values of r are symmetric only to rounding, so the weights apply
    only when the id set is closed under every mirror used; otherwise
    every cell weighs 1.
    """
    if not any(field.mirrors):
        return None
    m_u, m_v = field.cell_shape
    i, j = np.divmod(ids, m_v)
    images = ((m_u - 1 - i) * m_v + j, i * m_v + (m_v - 1 - j))
    weight = np.ones(len(ids))
    for used, k, m, image in zip(field.mirrors, (i, j), (m_u, m_v), images):
        if not used:
            continue
        if not np.array_equal(np.sort(image), ids):
            return None
        weight *= 2.0 * (2 * k < m - 1) + (2 * k == m - 1)
    return weight
