"""Simply connected space forms of curvature b <= 0.

For b = 0 the model is R^3 with its Euclidean structure.  For b < 0 it is
the hyperboloid sheet {x : <x,x>_M = 1/b, x_0 > 0} inside Minkowski
R^4, where <x,y>_M = -x_0 y_0 + x_1 y_1 + x_2 y_2 + x_3 y_3; the induced
metric has constant curvature b.  Distances, geodesics, and radial
directions are closed-form in this model, with no boundary blow-up at
large radius.

Points and tangent vectors are plain float arrays of length `dim`
(3 for b = 0, 4 for b < 0); all operations broadcast over leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ModelError, PoleSingularity

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
        s = np.einsum("...k,...k->...", x, y)
        if self.curved:
            s = s - 2.0 * x[..., 0] * y[..., 0]
        return s

    def normal_seed(self, x: np.ndarray, a: np.ndarray,
                    c: np.ndarray) -> np.ndarray:
        """A normal to the tangent plane span(a, c) at x, of free length
        and sign: a x c for b = 0; for b < 0 the Minkowski dual of the
        triple cross product, (x.(a x c), x_0 a x c + a_0 c x x + c_0 x x a).
        """
        if not self.curved:
            return np.cross(a, c)
        xs, as_, cs = x[..., 1:], a[..., 1:], c[..., 1:]
        ac = np.cross(as_, cs)
        rest = (x[..., :1] * ac + a[..., :1] * np.cross(cs, xs)
                + c[..., :1] * np.cross(xs, as_))
        head = np.einsum("...k,...k->...", xs, ac)[..., None]
        return np.concatenate([head, rest], axis=-1)

    # -- model membership ------------------------------------------------

    def point_residual(self, x: np.ndarray) -> np.ndarray:
        """Scale-relative violation of the model constraint at x."""
        x = np.asarray(x, dtype=np.float64)
        if not self.curved:
            return np.zeros(x.shape[:-1])
        sumsq = np.einsum("...k,...k->...", x, x)
        raw = np.abs(self.b * self.inner(x, x) - 1.0)
        return raw / (1.0 + np.abs(self.b) * sumsq)

    def check_point(self, x: np.ndarray, tol: float = 1e-9,
                    what: str = "point") -> None:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ModelError(
                f"{what} has {x.shape[-1]} coordinates, expected {self.dim}"
            )
        if self.curved:
            res = self.point_residual(x)
            worst = float(np.max(res))
            if worst > tol:
                raise ModelError(
                    f"{what} off the hyperboloid model: residual {worst:.3e}"
                )
            if np.any(np.asarray(x)[..., 0] <= 0):
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
            return np.linalg.norm(q - p, axis=-1)
        delta = self.b * self.inner(p, q) - 1.0
        return stable_acosh(delta) / self.kappa

    def radial_split(self, o: np.ndarray,
                     x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(distance(o, x), unit tangent at x of the geodesic from the pole
        o through x), from one x - o (b = 0) or one b<o, x> - 1 (b < 0).

        The distance equals `distance` bitwise.  For b < 0 the tangent is
        Minkowski-orthogonal to x (model-tangent) and has Minkowski norm 1.
        """
        o = np.asarray(o, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if not self.curved:
            diff = x - o
            r = np.linalg.norm(diff, axis=-1)
            if np.any(r < 1e-12):
                raise PoleSingularity("radial direction undefined at the pole")
            return r, diff / r[..., None]
        delta = self.b * self.inner(o, x) - 1.0
        r = stable_acosh(delta) / self.kappa
        delta = np.maximum(delta, 0.0)
        sh = np.sqrt(delta * (2.0 + delta))  # sinh(kappa * r)
        if np.any(sh < 1e-12):
            raise PoleSingularity("radial direction undefined at the pole")
        ch = 1.0 + delta
        return r, self.kappa * (ch[..., None] * x - o) / sh[..., None]
