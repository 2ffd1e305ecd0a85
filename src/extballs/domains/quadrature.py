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
  reached cells in ``DistanceField.cell_order``, sorted by their corner
  maximum of r, so the cells inside {r < t} are a prefix and each
  radius sums that slice with ``np.sum`` (pairwise, no cumulative
  sum).  The chart's declared ``ParametricSurface.symmetry`` limits the
  cells evaluated: on a ``"u_shift"`` chart the integrals depend on the
  cell row alone, so only one column of cells, at u = 0, is evaluated;
  on a ``"dihedral"`` chart (Enneper, the sphere control) only one
  octant of cells (one quadrant on a non-square grid) is, and
  reflections fill the rest.  The cells are weighted in batches of at
  most ``BATCH_POINTS`` points, one `batch_map` item each;
* each cut cell is split at the level curve's two boundary crossings
  into three pieces along the grid axis best aligned with the curve's
  graph direction, and every piece is integrated by four 4-point
  Gauss-Legendre strips across the cell; a strip covers the whole cell,
  nothing, or its inside part up to a crossing that a safeguarded Newton
  iteration locates on the exact ambient distance, so the only error
  left is the smooth-quadrature remainder.  A grid cell reads its two
  boundary crossings from the level's one solve per cut edge; only
  subdivided children solve their own.  Frames run only at points of
  positive weight;
* cells where the strip picture fails (saddles of r, curve tangent to a
  strip) subdivide recursively, re-trying the slicer on each child and
  integrating children that fall wholly inside with the full-cell rule,
  with a linear marching-squares polygon estimate at the maximum depth.

Features of the region smaller than one grid cell (for example an island
of the outside region just after a critical level) are resolved only once
they span a cell; the radius schedule's critical-value skipping keeps
such levels out of reported results.
"""

from __future__ import annotations

import numpy as np

from ..immersion import BATCH_POINTS, FrameBatch, batch_map, frames
from .field import CutCells, DistanceField, bracketed_newton


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
    later calls reuse it.  The chart's declared ``symmetry`` picks the
    cells that are integrated:

    * ``"u_shift"``: the densities depend on v alone, so one column of
      cells at u = 0 (one cell per row the reached cells meet) is
      integrated and each cell reads its row's integral;
    * ``"dihedral"``: the fundamental cells whose orbit meets the reached
      cells are integrated and unfolded by reflection
      (`_dihedral_cells`);
    * None: every reached cell is integrated, in row-major order.

    Every quadrature batch holds at most ``BATCH_POINTS`` points and is
    one `batch_map` item (`_cell_batches`).
    """
    if field.cell_integrals is None:
        i, j = np.divmod(field.cell_order, field.spec.n_v - 1)
        symmetry = field.surface.symmetry
        if symmetry == "u_shift":
            index, rows = _distinct(j, field.spec.n_v - 1)
            column = _cell_batches(field, np.zeros(len(rows)),
                                   field.v_nodes[rows])
            out = [part[index] for part in column]
        elif symmetry == "dihedral":
            out = _dihedral_cells(field, i, j)
        else:
            row_major = np.argsort(field.cell_order, kind="stable")
            out = []
            for part in _cell_batches(field, field.u_nodes[i[row_major]],
                                      field.v_nodes[j[row_major]]):
                cells = np.empty(len(part))
                cells[row_major] = part
                out.append(cells)
        field.cell_integrals = tuple(out)
    return dict(zip(CHANNELS, field.cell_integrals))


def _distinct(keys: np.ndarray, size: int):
    """(index, present) for integer keys in [0, size).

    ``present`` lists the distinct keys in increasing order and
    ``index[k]`` is the position of ``keys[k]`` in it.
    """
    seen = np.zeros(size, dtype=bool)
    seen[keys] = True
    present = np.flatnonzero(seen)
    slot = np.zeros(size, dtype=np.int64)
    slot[present] = np.arange(len(present))
    return slot[keys], present


def _cell_batches(field: DistanceField, u0: np.ndarray,
                  v0: np.ndarray) -> tuple[np.ndarray, ...]:
    """`_full_cells` of whole grid cells, ``BATCH_POINTS`` points a batch,
    one `batch_map` item each."""
    step = BATCH_POINTS // _X3.size ** 2
    parts = batch_map(lambda s: _full_cells(field, u0[s:s + step],
                                            v0[s:s + step],
                                            field.h_u, field.h_v),
                      range(0, len(u0), step))
    if not parts:
        return tuple(np.zeros(0) for _ in CHANNELS)
    return tuple(np.concatenate(channel) for channel in zip(*parts))


def _dihedral_cells(field: DistanceField, i: np.ndarray,
                    j: np.ndarray) -> list[np.ndarray]:
    """Cache channels of a ``"dihedral"`` chart from its fundamental cells.

    The nodes sit at half offsets on (-a, a), so cell column i and
    column m_u - 1 - i (of m_u) are mirror images under u -> -u, and
    likewise for rows; the quadrant of the lowest ceil(m/2) indices on
    each axis is fundamental.  When the cell grid is square (m_u == m_v)
    and the domain is too, u <-> v maps cell (i, j) to (j, i), and the
    upper triangle i <= j of the quadrant (one octant) is fundamental.
    Each reached cell (i, j) folds to its fundamental image; those images
    are integrated once each, in row-major order, and every reached cell
    reads its image's integrals.
    """
    m_u, m_v = field.cell_shape
    half_v = (m_v + 1) // 2
    fi = np.minimum(i, m_u - 1 - i)
    fj = np.minimum(j, m_v - 1 - j)
    (_, u1), (_, v1) = field.surface.domain
    if m_u == m_v and u1 == v1:
        fi, fj = np.minimum(fi, fj), np.maximum(fi, fj)
    index, fundamental = _distinct(fi * half_v + fj,
                                   ((m_u + 1) // 2) * half_v)
    qi, qj = np.divmod(fundamental, half_v)
    return [part[index] for part in _cell_batches(
        field, field.u_nodes[qi], field.v_nodes[qj])]


def _cell_crossings(u0, v0, hu: float, hv: float, f00, f10, f11, f01, ok,
                    solve):
    """Place the level curve's two boundary crossings per non-saddle cell.

    Marking saddle cells (four cut edges) not-ok, every remaining cut cell
    has exactly two cut sides.  ``solve(side, sel, base_u, base_v, du, dv,
    f_a, f_b)`` returns the crossing parameter s from the side's base and
    whether it is located, for the cells ``sel`` on that side (0 bottom,
    1 right, 2 top, 3 left).  Returns (cross_u, cross_v) of shape (n, 2)
    plus the updated ok mask.
    """
    n = len(u0)
    in00, in10, in11, in01 = f00 < 0, f10 < 0, f11 < 0, f01 < 0
    cuts = (
        (in00 != in10, u0, v0, hu, 0.0, f00, f10),            # bottom
        (in10 != in11, u0 + hu, v0, 0.0, hv, f10, f11),       # right
        (in01 != in11, u0, v0 + hv, hu, 0.0, f01, f11),       # top
        (in00 != in01, u0, v0, 0.0, hv, f00, f01),            # left
    )
    n_cut = sum(c[0].astype(np.int8) for c in cuts)
    ok &= n_cut != 4

    cross_u = np.zeros((n, 2))
    cross_v = np.zeros((n, 2))
    slot = np.zeros(n, dtype=np.int64)
    for side, (cut, bu, bv, du, dv, fa, fb_) in enumerate(cuts):
        sel = np.nonzero(cut & ok)[0]
        if len(sel) == 0:
            continue
        s, nok = solve(side, sel, bu[sel], bv[sel], du, dv, fa[sel],
                       fb_[sel])
        ok[sel] &= nok
        cross_u[sel, slot[sel]] = bu[sel] + s * du
        cross_v[sel, slot[sel]] = bv[sel] + s * dv
        slot[sel] += 1
    return cross_u, cross_v, ok


def _slice_cells(field: DistanceField, tt: float, u0, v0, hu: float, hv: float,
                 f00, f10, f11, f01, solve):
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

    ``solve`` places the boundary crossings (see `_cell_crossings`).
    Returns (contrib: one (n,) array per channel, ok: (n,) bool); the
    cells flagged not-ok (saddles, unlocated crossings, strips whose
    three-point sign pattern is inconsistent with one crossing) contribute
    zero and are the caller's to subdivide.
    """
    n = len(u0)
    contrib = tuple(np.zeros(n) for _ in CHANNELS)
    ok = np.ones(n, dtype=bool)
    cross_u, cross_v, ok = _cell_crossings(
        u0, v0, hu, hv, f00, f10, f11, f01, ok, solve)
    sel = np.nonzero(ok)[0]
    if len(sel) == 0:
        return contrib, ok

    in00, in10, in11, in01 = (f[sel] < 0 for f in (f00, f10, f11, f01))
    f00, f10, f11, f01 = f00[sel], f10[sel], f11[sel], f01[sel]
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
    AB = np.sort(np.where(along_u[:, None], cross_u[sel], cross_v[sel]),
                 axis=1)
    A, B = AB[:, 0], AB[:, 1]
    lo_full = np.where(along_u, in00 & in01, in00 & in10)
    hi_full = np.where(along_u, in10 & in11, in01 & in11)

    # Middle piece: one crossing per strip across the cell.
    q = A[:, None] + (B - A)[:, None] * _X4[None, :]
    bu, bv = uv(q, c0[:, None])
    du, dv = uv(0.0 * hc, hc)
    du, dv = du[:, None], dv[:, None]
    f_a = field.eval_r(bu, bv) - tt
    f_b = field.eval_r(bu + du, bv + dv) - tt
    f_m = field.eval_r(bu + 0.5 * du, bv + 0.5 * dv) - tt
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
_POLY_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


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
            poly.append(_POLY_CORNERS[a])
        if inside[a] != inside[b]:
            s = fc[a] / (fc[a] - fc[b])
            poly.append(_POLY_CORNERS[a]
                        + s * (_POLY_CORNERS[b] - _POLY_CORNERS[a]))
    pts = np.asarray(poly)
    x, y = pts[:, 0], pts[:, 1]
    return float(0.5 * np.abs(np.dot(x, np.roll(y, -1))
                              - np.dot(y, np.roll(x, -1))))


def integrate_cut_cells(field: DistanceField, tt: float, cells: CutCells,
                        edge_s: np.ndarray,
                        edge_located: np.ndarray) -> list[float]:
    """Integrate each channel over the inside part of the level's cut cells.

    ``cells`` are the level's `CutCells`, whose corners give the cells'
    node values, and ``edge_s`` and ``edge_located`` hold per cell and
    side the level's edge crossings (``Level.cell_edges``).  Subdivided
    children solve their own.
    """
    ci, cj = np.divmod(cells.ids, field.spec.n_v - 1)
    u0 = field.u_nodes[ci]
    v0 = field.v_nodes[cj]
    f00, f10, f11, f01 = (cells.corners - tt).T

    totals = [0.0 for _ in CHANNELS]
    hu, hv = field.h_u, field.h_v

    def shared(side, sel, *_):
        return edge_s[sel, side], edge_located[sel, side]

    def newton(side, sel, bu, bv, du, dv, fa, fb):
        return bracketed_newton(field, tt, bu, bv, du, dv, 0.0, 1.0, fa, fb,
                                iters=4, tol=_STRIP_TOL)

    solve = shared
    for depth in range(_MAX_DEPTH + 1):
        if len(u0) == 0:
            return totals
        contrib, ok = _slice_cells(field, tt, u0, v0, hu, hv,
                                   f00, f10, f11, f01, solve)
        totals = [total + float(np.sum(part[ok]))
                  for total, part in zip(totals, contrib)]
        if bool(np.all(ok)) or depth == _MAX_DEPTH:
            break
        # Subdivide the cells the slicer rejected: five fresh corner
        # evaluations per cell give the four children's corner values.
        w = np.nonzero(~ok)[0]
        pu, pv = u0[w], v0[w]
        p00, p10, p11, p01 = f00[w], f10[w], f11[w], f01[w]
        um, vm = pu + 0.5 * hu, pv + 0.5 * hv
        eb = field.eval_r(um, pv) - tt
        et = field.eval_r(um, pv + hv) - tt
        el = field.eval_r(pu, vm) - tt
        er = field.eval_r(pu + hu, vm) - tt
        ec = field.eval_r(um, vm) - tt

        hu, hv = 0.5 * hu, 0.5 * hv
        solve = newton
        cu = np.concatenate([pu, um, um, pu])
        cv = np.concatenate([pv, pv, vm, vm])
        c00 = np.concatenate([p00, eb, ec, el])
        c10 = np.concatenate([eb, p10, er, ec])
        c11 = np.concatenate([ec, er, p11, et])
        c01 = np.concatenate([el, ec, et, p01])

        c_in = (c00 < 0) & (c10 < 0) & (c11 < 0) & (c01 < 0)
        c_out = (c00 >= 0) & (c10 >= 0) & (c11 >= 0) & (c01 >= 0)
        if np.any(c_in):
            full = _full_cells(field, cu[c_in], cv[c_in], hu, hv)
            totals = [total + float(np.sum(part))
                      for total, part in zip(totals, full)]
        keep = ~c_in & ~c_out
        u0, v0 = cu[keep], cv[keep]
        f00, f10, f11, f01 = c00[keep], c10[keep], c11[keep], c01[keep]

    # Terminal estimate for whatever survived to the depth cap.
    left = np.nonzero(~ok)[0]
    if len(left):
        um = u0[left] + 0.5 * hu
        vm = v0[left] + 0.5 * hv
        dens = _densities(frames(field.surface, um, vm))
        for k, idx in enumerate(left):
            fc = np.array([f00[idx], f10[idx], f11[idx], f01[idx]])
            frac = _terminal_polygon(fc) * hu * hv
            totals = [total + frac * float(d[k])
                      for total, d in zip(totals, dens)]
    return totals


def region_integral(field: DistanceField, tt: float,
                    level) -> dict[str, float]:
    """Integrals of the CHANNELS densities over the extrinsic ball {r < tt}.

    ``level`` is the `contours.Level` of tt.  The cells fully inside are
    the leading cells of ``field.cell_order`` whose corner maximum is
    below tt; the cut cells are the level's.
    """
    cache = ensure_cell_cache(field)
    inside = int(np.searchsorted(field.cell_max, tt))
    cut = integrate_cut_cells(field, tt, level.cells, *level.cell_edges())
    return {name: float(np.sum(cache[name][:inside])) + part
            for name, part in zip(CHANNELS, cut)}
