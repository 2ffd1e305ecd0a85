"""Sampled extrinsic-distance fields over a chart grid.

A field holds, on a regular parameter grid, the ambient distance r from a
fixed pole.  Everything downstream (contour extraction, area quadrature,
critical-radius scans) reads from one field, so the grid layout
conventions live here:

* Non-periodic directions place nodes at half offsets,
  ``u0 + (i + 1/2) h``, so no node touches the open chart boundary.  An
  even node count keeps every node off the axis's centre; with an odd
  count the middle node sits on it, and a node that lands on the pole
  (by default the chart origin) is a ``ConfigError``.
* A periodic u direction places nodes at ``u0 + i h`` with ``h = period /
  n_u``; the seam cell wraps from the last column back to the first.
* Cell (i, j) has corners c0..c3 at nodes (i, j), (i+1, j), (i+1, j+1),
  (i, j+1); on a u-periodic grid i+1 wraps to 0, giving ``m_u = n_u``
  cell columns (else n_u - 1), and its flat id is ``i * (n_v - 1) + j``.
  With ``ncu`` cell columns, the u-edge from node (i, j) to (i+1, j) has
  global id ``j * ncu + i`` and the v-edge from (i, j) to (i, j+1) has
  ``n_v * ncu + j * n_u + i``.
* A chart axis whose declared mirror (``ParametricSurface.mirror_u``,
  ``mirror_v``) fixes the pole is recorded in ``DistanceField.mirrors``.
  The mirror maps node k to n - 1 - k and cell k to m - 1 - k on a
  non-periodic axis (half-offset nodes on a centred interval), and node
  i to (n - i) mod n and cell i to n - 1 - i on a periodic u starting
  at 0.  The node values of r are mirror-symmetric only to rounding.
* Once per field, the cells with a corner below t_max (the only ones a
  requested ball can reach) are indexed by their corner maximum of r:
  ``_BUCKETS`` equal buckets over [0, largest maximum], the cells
  bucket-major and row-major inside a bucket
  (``DistanceField.cell_order``, ``bucket_start``).  The cells fully
  inside {r < t} are the whole buckets below t's own plus the cells of
  t's bucket whose maximum is below t (`cells_below`), and every cell
  the level {r = t} cuts has its maximum in [t, t + largest cell span),
  so ``level_cells`` classifies only the buckets of that band, never
  the whole grid.  The tests hold both sets against a classification of
  every cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DomainTooSmall, ModelError, PoleOffModel
from ..immersion import BATCH_POINTS, ParametricSurface, radial_frames

# A node's six neighbours on the triangulated grid of `critical_scan`, in
# cyclic order; the first three follow it in row-major order.
_RING = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
_NEWTON_STEPS = 8


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution for a distance field."""

    n_u: int = 512
    n_v: int = 512

    def __post_init__(self):
        if self.n_u < 64 or self.n_v < 64:
            raise ConfigError(
                f"grid must be at least 64x64, got {self.n_u}x{self.n_v}"
            )


@dataclass
class DistanceField:
    """Extrinsic distance r on a grid.

    A field is read-only once `quadrature.ensure_cell_cache` has filled
    ``cell_integrals``: the balls of a schedule are extracted from it in
    `immersion.batch_map` items, which may run in forked children where
    a write is lost, so nothing after that point may write to it.
    """

    surface: ParametricSurface
    pole: np.ndarray
    spec: GridSpec
    t_max: float
    u_nodes: np.ndarray           # (n_u,)
    v_nodes: np.ndarray           # (n_v,)
    r: np.ndarray                 # (n_u, n_v)
    h_u: float
    h_v: float
    # Flat ids of the cells with a corner below t_max, bucket-major by
    # their corner maximum of r and row-major inside a bucket
    # (`_index_reached_cells`); where each bucket starts in that order,
    # with the end last; buckets per unit of r; and the largest corner
    # max - min among those cells.
    cell_order: np.ndarray = field(repr=False)     # (n_reached,) int32
    bucket_start: np.ndarray = field(repr=False)   # (_BUCKETS + 1,)
    bucket_scale: float
    cell_span: float
    # Per chart axis (u, v), whether the chart's declared mirror fixes
    # the pole exactly, so every ball is symmetric under it.
    mirrors: tuple[bool, bool]
    # Per-channel full-cell integrals in ``cell_order``, filled by
    # quadrature.ensure_cell_cache on first use.
    cell_integrals: tuple | None = field(default=None, repr=False)

    @property
    def periodic_u(self) -> bool:
        return self.surface.periodic_u

    @property
    def cell_shape(self) -> tuple[int, int]:
        """Cell columns and rows (m_u, m_v) of the grid."""
        return (self.spec.n_u if self.periodic_u else self.spec.n_u - 1,
                self.spec.n_v - 1)

    def eval_r(self, U, V) -> np.ndarray:
        """Exact extrinsic distance at arbitrary chart points."""
        X = self.surface.eval(U, V)
        return self.surface.form.distance(self.pole, X)


# Buckets of the reached cells' corner maxima: few enough for an int16
# key, whose stable argsort NumPy runs as a radix sort in O(n).
_BUCKETS = 4096


def _index_reached_cells(r: np.ndarray, periodic_u: bool, t_max: float):
    """(cell_order, bucket_start, bucket_scale, cell_span) of the cells
    reaching below t_max.

    Cell rows run in blocks of about ``BATCH_POINTS`` cells, so the
    corner minima and maxima (pairwise extremes of adjacent node rows,
    then of adjacent columns) stay a block's size; the u-periodic wrap
    row (last node row against row 0) joins the last block.  A reached
    cell's key is its bucket ``floor(max * bucket_scale)``, clipped to
    the last bucket, over [0, largest maximum]; the sort is stable, so a
    bucket keeps its cells in row-major order.
    """
    n_u, n_v = r.shape
    m_u = n_u if periodic_u else n_u - 1
    rows = max(1, BATCH_POINTS // n_v)
    pair = np.empty((rows, n_v))
    lo = np.empty((rows, n_v - 1))
    hi = np.empty_like(lo)
    ids, key, span = [], [], 0.0
    for start in range(0, m_u, rows):
        stop = min(start + rows, m_u)
        node = (r[start:stop + 1] if stop < n_u
                else np.concatenate([r[start:], r[:1]]))
        k = stop - start
        p, low, high = pair[:k], lo[:k], hi[:k]
        for out, op in ((low, np.minimum), (high, np.maximum)):
            op(node[:-1], node[1:], out=p)
            op(p[:, :-1], p[:, 1:], out=out)
        sel = np.flatnonzero(low < t_max)
        cell_max = high.ravel()[sel]
        span = max(span, float(np.max(cell_max - low.ravel()[sel],
                                      initial=0.0)))
        ids.append(sel.astype(np.int32) + np.int32(start * (n_v - 1)))
        key.append(cell_max)
    key = np.concatenate(key)
    top = float(np.max(key, initial=0.0))
    scale = _BUCKETS / top if top > 0.0 else 0.0
    key *= scale
    np.minimum(key, _BUCKETS - 1, out=key)
    key = key.astype(np.int16)
    order = np.concatenate(ids)[np.argsort(key, kind="stable")]
    start = np.zeros(_BUCKETS + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=_BUCKETS), out=start[1:])
    return order, start, scale, span


def _buckets(field: DistanceField, lo: float, hi: float) -> slice:
    """The positions in ``cell_order`` of the buckets that hold corner
    maxima lo to hi, keyed as at the build."""
    first, last = (min(max(int(x * field.bucket_scale), 0), _BUCKETS - 1)
                   for x in (lo, hi))
    return slice(int(field.bucket_start[first]),
                 int(field.bucket_start[last + 1]))


def cells_below(field: DistanceField, tt: float) -> tuple[int, np.ndarray]:
    """The reached cells with corner maximum below tt, as positions in
    ``cell_order``: every position before ``whole`` (the buckets below
    tt's own) and the positions ``part`` in tt's bucket."""
    own = _buckets(field, tt, tt)
    corners = _cell_corners(field.r, field.cell_order[own],
                            field.periodic_u)[3]
    return own.start, own.start + np.flatnonzero(np.all(corners < tt, axis=1))


# The corners (a, b) bounding a cell's bottom, right, top and left side;
# a side's crossing parameter s runs from corner a to corner b.
CELL_SIDES = ((0, 1), (1, 2), (3, 2), (0, 3))


@dataclass
class CutCells:
    """The cells a level {r = t} cuts, in row-major (flat id) order.

    Per cell: its flat id, the node values of r at its corners c0..c3,
    its marching-squares ``case`` (1-14, bit k set when corner k is
    inside) and the global ids of its edges in ``CELL_SIDES`` order.
    """

    ids: np.ndarray               # (n,)
    corners: np.ndarray           # (n, 4)
    case: np.ndarray              # (n,)
    edges: np.ndarray             # (n, 4)

    def __len__(self) -> int:
        return len(self.ids)


def _cell_corners(r: np.ndarray, ids: np.ndarray, periodic_u: bool):
    """(i, j, i1, corners) of the flat cell ``ids``: the node indices of
    their c0 corners, the node row of c1 and c2, and the node values of
    r at c0..c3, (n, 4)."""
    n_u, n_v = r.shape
    i, j = np.divmod(ids, n_v - 1)
    i1 = (i + 1) % n_u if periodic_u else i + 1
    corners = np.stack([r[i, j], r[i1, j], r[i1, j + 1], r[i, j + 1]], axis=1)
    return i, j, i1, corners


def cut_cells(r: np.ndarray, t: float, periodic_u: bool,
              ids: np.ndarray) -> CutCells:
    """The cells among the flat ``ids`` that the level {r = t} cuts."""
    n_u, n_v = r.shape
    i, j, i1, corners = _cell_corners(r, ids, periodic_u)
    case = (corners < t) @ np.array([1, 2, 4, 8], dtype=np.int16)
    keep = np.flatnonzero((case > 0) & (case < 15))
    keep = keep[np.argsort(ids[keep])]
    ids, corners, case = ids[keep], corners[keep], case[keep]
    i, j, i1 = i[keep], j[keep], i1[keep]
    ncu = n_u if periodic_u else n_u - 1
    nue = n_v * ncu
    edges = np.stack([j * ncu + i, nue + j * n_u + i1,
                      (j + 1) * ncu + i, nue + j * n_u + i], axis=1)
    return CutCells(ids=ids, corners=corners, case=case, edges=edges)


# Relative slack on the band's upper end, so rounding in t + span never
# drops a cut cell (four units in the last place).
_BAND_SLACK = 1.0 + 4.0 * np.finfo(np.float64).eps


def level_cells(field: DistanceField, tt: float) -> CutCells:
    """The cells the level {r = tt} cuts, classified from its band only.

    A cut cell has corner maximum >= tt and corner minimum < tt, so its
    maximum lies in [tt, tt + cell_span): only the buckets of that
    interval are gathered and classified, and `cut_cells` drops the
    cells of the two end buckets that lie wholly inside or outside.
    """
    band = _buckets(field, tt, (tt + field.cell_span) * _BAND_SLACK)
    return cut_cells(field.r, tt, field.periodic_u, field.cell_order[band])


# A grid node lies on the pole when kappa r (r on R^3) is below this:
# `SpaceForm.radial_split`'s threshold, below which the radial direction
# is undefined.
_ON_POLE = 1e-12

# A Newton crossing counts as located when r there is this close to the
# level.
_CROSSING_RESIDUAL = 1e-8


def bracketed_newton(field: DistanceField, tt: float, base_u, base_v, du, dv,
                     lo, hi, flo, fhi, *, iters: int,
                     tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve r(base + s * (du, dv)) = tt for s, safeguarded by a bracket.

    The arrays flo = f(lo) and fhi = f(hi) have opposite signs; lo and hi
    may be scalars.  The solve starts at the secant root, takes Newton
    steps on the exact distance, bisects wherever a step leaves the
    bracket, and freezes a point once |r - tt| <= tol.  Returns s and
    whether each crossing is located: a frozen point is, and r is
    evaluated once more at the others' final s, which locates them when
    |r - tt| <= ``_CROSSING_RESIDUAL``.
    """
    surf = field.surface
    form = surf.form
    du = np.asarray(du)
    dv = np.asarray(dv)
    s = lo + (hi - lo) * flo / (flo - fhi)
    done = np.zeros(np.shape(s), dtype=bool)
    for _ in range(iters):
        F, Fu, Fv = surf.jet(base_u + s * du, base_v + s * dv, 1)
        r, rad = form.radial_split(field.pole, F)
        f = r - tt
        fp = form.inner(rad, Fu * du + Fv * dv)
        done |= np.abs(f) <= tol
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
    redo = ~done
    if np.any(redo):
        U, V = np.broadcast_arrays(base_u + s * du, base_v + s * dv)
        done[redo] = (np.abs(field.eval_r(U[redo], V[redo]) - tt)
                      <= _CROSSING_RESIDUAL)
    return s, done


def build_field(surface: ParametricSurface, t_max: float,
                pole: np.ndarray | None = None,
                spec: GridSpec | None = None) -> DistanceField:
    """Sample r; check the domain-covers-ball guard.

    r is the ambient distance of the chart's positions (`surface.eval`,
    `SpaceForm.distance`), equal bitwise to the r of `radial_frames`.
    The nodes run in the caller in blocks of whole u-rows of at most
    ``BATCH_POINTS`` nodes (one row when a row is longer), so the batch
    temporaries stay a block's size while the grid matches one
    whole-grid batch bitwise.  No frame is evaluated here: the
    degenerate-metric guard (`ImmersionError`) still runs through the
    cell cache's `frames` at every reached cell.

    The guard requires the minimum of r over the outermost node ring (in
    every non-periodic direction) to exceed t_max: otherwise some requested
    ball would leak outside the chart and its area and boundary would be
    silently truncated.  A node on the pole (``_ON_POLE``) raises
    ``ConfigError``.  The field ends with the bucket index of the
    reached cells by corner maximum (``cell_order``, ``bucket_start``),
    which every ball of the schedule reads, and with the chart mirrors
    that fix the pole exactly (S * pole == pole, ``mirrors``).
    """
    if not np.isfinite(t_max) or t_max <= 0.0:
        raise ConfigError(f"t_max must be positive, got {t_max}")
    spec = spec or GridSpec()

    if pole is None:
        pole = surface.default_pole()
    pole = np.asarray(pole, dtype=np.float64)
    try:
        surface.form.check_point(pole, what="pole")
    except ModelError as exc:
        raise PoleOffModel(str(exc)) from exc

    (u0, u1), (v0, v1) = surface.domain
    h_u = (u1 - u0) / spec.n_u
    offset_u = 0.0 if surface.periodic_u else 0.5
    u_nodes = u0 + h_u * (np.arange(spec.n_u) + offset_u)
    h_v = (v1 - v0) / spec.n_v
    v_nodes = v0 + h_v * (np.arange(spec.n_v) + 0.5)

    rows = max(1, BATCH_POINTS // spec.n_v)
    form = surface.form
    on_pole = _ON_POLE / form.kappa if form.curved else _ON_POLE

    r = np.empty((spec.n_u, spec.n_v))
    for start in range(0, spec.n_u, rows):
        U, V = u_nodes[start:start + rows, None], v_nodes[None, :]
        block = r[start:start + rows]
        block[...] = form.distance(pole, surface.eval(U, V))
        if np.any(block < on_pole):
            raise _node_on_pole(surface, U, V, block, start)
    if not np.all(np.isfinite(r)):
        raise ConfigError(
            f"distance field on {surface.label!r} contains non-finite values"
        )

    ring = [r[:, 0], r[:, -1]]
    if not surface.periodic_u:
        ring += [r[0, :], r[-1, :]]
    ring_min = float(min(np.min(part) for part in ring))
    if ring_min <= t_max:
        raise DomainTooSmall(
            f"chart {surface.label!r} boundary reaches extrinsic distance "
            f"{ring_min:.4f} <= t_max = {t_max:.4f}; move the pole toward "
            "the chart centre or lower t_max"
        )

    order, start, scale, span = _index_reached_cells(r, surface.periodic_u,
                                                     t_max)
    mirrors = tuple(signs is not None
                    and np.array_equal(np.asarray(signs) * pole, pole)
                    for signs in (surface.mirror_u, surface.mirror_v))
    return DistanceField(surface=surface, pole=pole, spec=spec, t_max=t_max,
                         u_nodes=u_nodes, v_nodes=v_nodes, r=r,
                         h_u=h_u, h_v=h_v,
                         cell_order=order, bucket_start=start,
                         bucket_scale=scale, cell_span=span, mirrors=mirrors)


def _node_on_pole(surface: ParametricSurface, U, V, r: np.ndarray,
                  first_row: int) -> ConfigError:
    """The error for a block of grid nodes (a column U of u, a row V of
    v), at distances r from the pole, that holds the pole."""
    i, j = np.unravel_index(np.argmin(r), r.shape)
    return ConfigError(
        f"grid node ({first_row + i}, {j}) at chart point "
        f"({U[i, 0]:.6g}, {V[0, j]:.6g}) lies on the pole, where the radial "
        "direction is undefined; use an even node count along each "
        "non-periodic axis (an odd count puts its middle node on the chart "
        "centre) or move the pole")


def critical_scan(field: DistanceField, t_lo: float, t_hi: float) -> dict:
    """Critical levels of r in the annulus t_lo < r < t_hi.

    Each cell is split along its (i, j)-(i+1, j+1) diagonal, and a node
    is critical for the piecewise-linear r (T. Banchoff, J. Differential
    Geom. 1, 1967) when r minus its value does not change sign exactly
    twice around its ring of six neighbours; a tie counts the later node
    in row-major order as above.  The pole's own minimum is left out.
    Newton steps on the chart gradient of r, with a central-difference
    Jacobian, refine each critical node.

    Returns ``critical_values``, the distinct r at the refined points,
    and ``R0``, the largest of them (t_lo when there is none): every
    level past R0 is regular.
    """
    if not (0.0 <= t_lo < t_hi <= field.t_max + 1e-12):
        raise ConfigError(
            f"bad annulus ({t_lo}, {t_hi}) for t_max {field.t_max}"
        )
    # Only interior nodes have a whole ring; the domain guard keeps every
    # outer node above t_max anyway.  The ring test runs over blocks of
    # node rows, each read with a one-row halo (modulo n_u, which wraps
    # a periodic grid and is never reached otherwise).
    r = field.r
    n_u, n_v = r.shape
    first, stop = (0, n_u) if field.periodic_u else (1, n_u - 1)
    rows = max(1, BATCH_POINTS // n_v)
    lo = max(t_lo, float(np.min(r)))
    found = []
    for start in range(first, stop, rows):
        end = min(start + rows, stop)
        block = r[np.arange(start - 1, end + 1) % n_u]
        node = block[1:-1, 1:-1]
        above = []
        for k, (di, dj) in enumerate(_RING):
            ring = block[1 + di:end - start + 1 + di, 1 + dj:n_v - 1 + dj]
            above.append(ring >= node if k < 3 else ring > node)
        changes = np.zeros(node.shape, dtype=np.int8)
        for a, b in zip(above, above[1:] + above[:1]):
            changes += a != b
        i, j = np.nonzero((changes != 2) & (node > lo) & (node < t_hi))
        found.append(np.stack([field.u_nodes[start + i],
                               field.v_nodes[j + 1]]))
    x = np.concatenate(found, axis=1)

    step = 1e-4 * np.array([field.h_u, field.h_v])
    probes = np.concatenate([np.zeros((1, 2)), np.diag(step),
                             -np.diag(step)])[:, :, None]   # (5, 2, 1)
    for _ in range(_NEWTON_STEPS):
        at = x + probes
        g = radial_frames(field.surface, at[:, 0], at[:, 1],
                          pole=field.pole).gradPr           # (5, n, 2)
        jac = np.stack([g[1] - g[3], g[2] - g[4]], axis=-1) / (2.0 * step)
        x = x - np.linalg.solve(jac, g[0][..., None])[..., 0].T
    values = np.sort(field.eval_r(x[0], x[1]))
    distinct = np.ones(len(values), dtype=bool)
    distinct[1:] = values[1:] != values[:-1]
    values = values[distinct].tolist()
    return {"critical_values": values, "R0": values[-1] if values else t_lo}
