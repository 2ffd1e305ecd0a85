"""Sampled extrinsic-distance fields over a chart grid.

A field holds, on a regular parameter grid, the ambient distance r from a
fixed pole together with the norm of its tangential gradient.  Everything
downstream (contour extraction, area quadrature, critical-radius scans)
reads from one field, so the grid layout conventions live here:

* Non-periodic directions place nodes at half offsets,
  ``u0 + (i + 1/2) h``, so no node touches the open chart boundary and the
  pole (usually the chart origin) never coincides with a node.
* A periodic u direction places nodes at ``u0 + i h`` with ``h = period /
  n_u``; the seam cell wraps from the last column back to the first.
* Cell (i, j) has its corners at nodes (i, j), (i+1, j), (i+1, j+1),
  (i, j+1), matching the kernel conventions in ``kernels_numpy``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DomainTooSmall, ModelError, PoleOffModel
from ..immersion import ParametricSurface, radial_frames


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
    """Extrinsic distance r and its tangential gradient norm on a grid."""

    surface: ParametricSurface
    pole: np.ndarray
    spec: GridSpec
    t_max: float
    u_nodes: np.ndarray           # (n_u,)
    v_nodes: np.ndarray           # (n_v,)
    r: np.ndarray                 # (n_u, n_v)
    grad_norm: np.ndarray         # (n_u, n_v)
    h_u: float
    h_v: float
    quad_cache: dict = field(default_factory=dict, repr=False)

    @property
    def periodic_u(self) -> bool:
        return self.surface.periodic_u

    @property
    def n_cells_u(self) -> int:
        return self.spec.n_u if self.periodic_u else self.spec.n_u - 1

    @property
    def n_cells_v(self) -> int:
        return self.spec.n_v - 1

    def eval_r(self, U, V) -> np.ndarray:
        """Exact extrinsic distance at arbitrary chart points."""
        X = self.surface.eval(U, V)
        return self.surface.form.distance(self.pole, X, check=False)

    def cell_origin(self, i, j):
        """Chart coordinates of corner node (i, j) of cell (i, j).

        For the periodic seam cell the returned u is the unwrapped
        coordinate ``u_nodes[i]``; points inside the cell may exceed the
        nominal domain end by less than one spacing, which periodic charts
        accept.
        """
        return self.u_nodes[np.asarray(i)], self.v_nodes[np.asarray(j)]


def build_field(surface: ParametricSurface, t_max: float,
                pole: np.ndarray | None = None,
                spec: GridSpec | None = None) -> DistanceField:
    """Sample r and its gradient norm; check the domain-covers-ball guard.

    The guard requires the minimum of r over the outermost node ring (in
    every non-periodic direction) to exceed t_max: otherwise some requested
    ball would leak outside the chart and its area and boundary would be
    silently truncated.
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
    if surface.periodic_u:
        h_u = (u1 - u0) / spec.n_u
        u_nodes = u0 + h_u * np.arange(spec.n_u)
    else:
        h_u = (u1 - u0) / spec.n_u
        u_nodes = u0 + h_u * (np.arange(spec.n_u) + 0.5)
    if surface.periodic_v:
        raise ConfigError("v-periodic charts are not supported by the field")
    h_v = (v1 - v0) / spec.n_v
    v_nodes = v0 + h_v * (np.arange(spec.n_v) + 0.5)

    U, V = np.meshgrid(u_nodes, v_nodes, indexing="ij")
    fb = radial_frames(surface, U, V, pole=pole)
    r = fb.r
    grad_norm = fb.normGradPr
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
            f"{ring_min:.4f} <= t_max = {t_max:.4f}; enlarge the chart"
        )

    return DistanceField(surface=surface, pole=pole, spec=spec, t_max=t_max,
                         u_nodes=u_nodes, v_nodes=v_nodes, r=r,
                         grad_norm=grad_norm, h_u=h_u, h_v=h_v)


def critical_scan(field: DistanceField, t_lo: float, t_hi: float,
                  grad_tol: float = 0.02,
                  settle_tol: float = 0.1) -> dict:
    """Scan an annulus of the field for near-critical distance levels.

    Returns a dict with:

    * ``min_grad``: minimum gradient norm over nodes with t_lo < r < t_hi.
    * ``critical_values``: cluster representatives of r over nodes whose
      gradient norm falls below ``grad_tol`` (candidates for level values
      the radius schedule should avoid).
    * ``R0``: largest r over nodes with gradient norm <= ``settle_tol``
      (clipped to the annulus); beyond it every sampled level is uniformly
      non-critical.  Falls back to t_lo when the annulus is clean.
    """
    if not (0.0 <= t_lo < t_hi <= field.t_max + 1e-12):
        raise ConfigError(
            f"bad annulus ({t_lo}, {t_hi}) for t_max {field.t_max}"
        )
    mask = (field.r > t_lo) & (field.r < t_hi)
    if not np.any(mask):
        return {"min_grad": float("inf"), "critical_values": [], "R0": t_lo}

    g = field.grad_norm[mask]
    rr = field.r[mask]
    min_grad = float(np.min(g))

    crit = np.sort(rr[g < grad_tol])
    values: list[float] = []
    if crit.size:
        # Cluster near-critical levels: split where consecutive sorted r
        # jump by more than a few cell diameters' worth of level change.
        gap = 3.0 * max(field.h_u, field.h_v)
        start = 0
        for k in range(1, crit.size + 1):
            if k == crit.size or crit[k] - crit[k - 1] > gap:
                values.append(float(np.mean(crit[start:k])))
                start = k

    settled = rr[g <= settle_tol]
    r0 = float(np.max(settled)) if settled.size else t_lo
    return {"min_grad": min_grad, "critical_values": values, "R0": r0}
