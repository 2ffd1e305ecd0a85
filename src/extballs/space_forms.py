"""Simply connected space forms of curvature b <= 0.

For b = 0 the model is R^3 with its Euclidean structure.  For b < 0 it is
the hyperboloid sheet {x : <x,x>_M = 1/b, x_0 > 0} inside Minkowski
R^4, where <x,y>_M = -x_0 y_0 + x_1 y_1 + x_2 y_2 + x_3 y_3; the induced
metric has constant curvature b.  Distances, geodesics, and radial
directions are closed-form in this model, with no boundary blow-up at
large radius.

Points and tangent vectors hold their `dim` coordinates (3 for b = 0, 4
for b < 0) on the leading axis and broadcast over the trailing ones.
Sums over coordinates (`_dot`, `_cross`) are grouped as NumPy's `einsum`
and `np.cross` group a trailing coordinate axis, and equal them bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ModelError, PoleSingularity


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_k x[k] y[k] over the leading axis of length 3 or 4, grouped as
    `einsum('...k,...k->...')` groups a contiguous trailing axis."""
    s = x[0] * y[0] + x[2] * y[2]
    return s + (x[1] * y[1] if len(x) == 3 else x[1] * y[1] + x[3] * y[3])


def _cross(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """a x c of 3-vectors on the leading axis, row by row as `np.cross`."""
    return np.array([a[1] * c[2] - a[2] * c[1], a[2] * c[0] - a[0] * c[2],
                     a[0] * c[1] - a[1] * c[0]])


def stable_acosh(delta: np.ndarray) -> np.ndarray:
    """Elementwise acosh(1 + delta) for delta >= 0, stable near zero.

    log1p(d + sqrt(d (2 + d))) never forms 1 + delta, so no digit of a
    small delta is lost.
    """
    d = np.maximum(np.asarray(delta, dtype=np.float64), 0.0)
    return np.log1p(d + np.sqrt(d * (2.0 + d)))


@dataclass(frozen=True)
class SpaceForm:
    """Ambient 3-space of constant curvature b <= 0."""

    b: float
    kappa: float = field(init=False)

    def __post_init__(self):
        if self.b > 0:
            raise ConfigError(f"curvature b={self.b} > 0 is not supported")
        object.__setattr__(self, "kappa", float(np.sqrt(-self.b)))

    @property
    def curved(self) -> bool:
        return self.b < 0

    @property
    def dim(self) -> int:
        """Coordinate length of ambient points."""
        return 4 if self.curved else 3

    # -- ambient bilinear form -------------------------------------------

    def inner(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Ambient model metric on vectors (Minkowski form when b < 0)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        s = _dot(x, y)
        if self.curved:
            s = s - 2.0 * x[0] * y[0]
        return s

    def normal_seed(self, x: np.ndarray, a: np.ndarray,
                    c: np.ndarray) -> np.ndarray:
        """A normal to the tangent plane span(a, c) at x, of free length
        and sign: a x c for b = 0; for b < 0 the Minkowski dual of the
        triple cross product, (x.(a x c), x_0 a x c + a_0 c x x + c_0 x x a).
        """
        if not self.curved:
            return _cross(a, c)
        xs, as_, cs = x[1:], a[1:], c[1:]
        ac = _cross(as_, cs)
        rest = (x[:1] * ac + a[:1] * _cross(cs, xs)
                + c[:1] * _cross(xs, as_))
        return np.concatenate([_dot(xs, ac)[None], rest])

    # -- model membership ------------------------------------------------

    def point_residual(self, x: np.ndarray) -> np.ndarray:
        """Scale-relative violation of the model constraint at x."""
        x = np.asarray(x, dtype=np.float64)
        if not self.curved:
            return np.zeros(x.shape[1:])
        sumsq = _dot(x, x)
        raw = np.abs(self.b * self.inner(x, x) - 1.0)
        return raw / (1.0 + np.abs(self.b) * sumsq)

    def check_point(self, x: np.ndarray, tol: float = 1e-9,
                    what: str = "point") -> None:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.dim:
            raise ModelError(
                f"{what} has {x.shape[0]} coordinates, expected {self.dim}"
            )
        if self.curved:
            res = self.point_residual(x)
            worst = float(np.max(res))
            if worst > tol:
                raise ModelError(
                    f"{what} off the hyperboloid model: residual {worst:.3e}"
                )
            if np.any(x[0] <= 0):
                raise ModelError(f"{what} on the wrong hyperboloid sheet")

    # -- comparison functions --------------------------------------------

    def h(self, t):
        """Mean curvature of the geodesic t-sphere, pointed inward.

        1/t for b = 0 and kappa*coth(kappa*t) for b < 0; strictly
        decreasing in t.
        """
        t = np.asarray(t, dtype=np.float64)
        if np.any(t <= 0):
            raise ValueError("h(t) requires t > 0")
        if not self.curved:
            return 1.0 / t
        return self.kappa / np.tanh(self.kappa * t)

    def ball_area(self, t):
        """Area of the totally geodesic 2-disk of radius t."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t <= 0):
            raise ValueError("ball_area(t) requires t > 0")
        if not self.curved:
            return np.pi * t * t
        half = np.sinh(0.5 * self.kappa * t)
        return 4.0 * np.pi * half * half / (-self.b)

    def circle_length(self, t):
        """Length of the geodesic circle of radius t in that 2-disk."""
        t = np.asarray(t, dtype=np.float64)
        if np.any(t <= 0):
            raise ValueError("circle_length(t) requires t > 0")
        if not self.curved:
            return 2.0 * np.pi * t
        return 2.0 * np.pi * np.sinh(self.kappa * t) / self.kappa

    # -- distance and radial structure -----------------------------------

    def distance(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Geodesic distance between model points, broadcasting, unchecked."""
        p = np.asarray(p, dtype=np.float64)
        q = np.asarray(q, dtype=np.float64)
        if not self.curved:
            d = q - p.reshape(p.shape + (1,) * (q.ndim - p.ndim))
            return np.linalg.norm(d, axis=0)
        delta = self.b * self.inner(p, q) - 1.0
        return stable_acosh(delta) / self.kappa

    def radial_split(self, o: np.ndarray,
                     x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(distance(o, x), unit tangent at x of the geodesic from the pole
        o through x), from one x - o (b = 0) or one b<o, x> - 1 (b < 0).

        The distance equals `distance` bitwise.  For b < 0 the tangent is
        Minkowski-orthogonal to x (model-tangent) and has Minkowski norm 1.
        """
        x = np.asarray(x, dtype=np.float64)
        o = np.asarray(o, dtype=np.float64)
        o = o.reshape(o.shape + (1,) * (x.ndim - o.ndim))  # pole column
        if not self.curved:
            diff = x - o
            r = np.linalg.norm(diff, axis=0)
            if np.any(r < 1e-12):
                raise PoleSingularity("radial direction undefined at the pole")
            return r, diff / r
        delta = self.b * self.inner(o, x) - 1.0
        r = stable_acosh(delta) / self.kappa
        delta = np.maximum(delta, 0.0)
        sh = np.sqrt(delta * (2.0 + delta))  # sinh(kappa * r)
        if np.any(sh < 1e-12):
            raise PoleSingularity("radial direction undefined at the pole")
        ch = 1.0 + delta
        return r, self.kappa * (ch * x - o) / sh
