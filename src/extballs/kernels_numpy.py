"""Pure-numpy implementations of the grid kernels.

Shared conventions:

* The node grid has shape (n_u, n_v).  Cell (i, j) has corner nodes
  c0=(i,j), c1=(i+1,j), c2=(i+1,j+1), c3=(i,j+1); in the u-periodic case
  i+1 wraps modulo n_u and there are n_u cell columns, otherwise n_u - 1.
* Global edge ids: the u-edge from node (i,j) to (i+1,j) has id
  j*ncu + i; the v-edge from (i,j) to (i,j+1) has id
  n_v*ncu + j*n_u + i.
* Cell classification codes: 0 = outside, 1 = inside, 2 = cut.
"""

from __future__ import annotations

import numpy as np

# acosh(1 + d) = sqrt(2d) * (1 - d/12 + 3d^2/160 - ...) for small d >= 0.
_SERIES_CUT = 1e-4


def stable_acosh(delta: np.ndarray) -> np.ndarray:
    """Elementwise acosh(1 + delta) for delta >= 0, stable near zero."""
    d = np.maximum(np.asarray(delta, dtype=np.float64), 0.0)
    small = d <= _SERIES_CUT
    out = np.empty_like(d)
    ds = d[small]
    out[small] = np.sqrt(2.0 * ds) * (1.0 - ds / 12.0 + 3.0 * ds * ds / 160.0)
    dl = d[~small]
    out[~small] = np.log1p(dl + np.sqrt(dl * (2.0 + dl)))
    return out


def _corner_views(r: np.ndarray, periodic_u: bool):
    if periodic_u:
        rr = np.concatenate([r, r[:1, :]], axis=0)
    else:
        rr = r
    c0 = rr[:-1, :-1]
    c1 = rr[1:, :-1]
    c2 = rr[1:, 1:]
    c3 = rr[:-1, 1:]
    return c0, c1, c2, c3


def classify_cells(r: np.ndarray, t: float, periodic_u: bool) -> np.ndarray:
    """Classify every grid cell against the level {r = t}."""
    c0, c1, c2, c3 = _corner_views(r, periodic_u)
    i0 = c0 < t
    i1 = c1 < t
    i2 = c2 < t
    i3 = c3 < t
    n_in = (i0.astype(np.int8) + i1.astype(np.int8)
            + i2.astype(np.int8) + i3.astype(np.int8))
    out = np.zeros(c0.shape, dtype=np.int8)
    out[n_in == 4] = 1
    out[(n_in > 0) & (n_in < 4)] = 2
    return out


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

    c0, c1, c2, c3 = _corner_views(r, periodic_u)
    case = (
        (c0 < t).astype(np.int16)
        + 2 * (c1 < t).astype(np.int16)
        + 4 * (c2 < t).astype(np.int16)
        + 8 * (c3 < t).astype(np.int16)
    )
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
