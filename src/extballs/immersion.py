"""Immersion calculus for parametric surface charts.

A chart supplies exact first and second partials of the embedding
F : (u, v) -> ambient, up to the order its caller asks for: 0 for
positions (`ParametricSurface.eval`), 1 for `radial_frames`, 2 for
`frames`.  Every surface is a hypersurface of a 3-dimensional space
form, so from those this module computes the induced metric, the unit
normal N, the scalar second form b_ij = <D_ij, N>, the scalar mean
curvature H (the mean curvature vector is H N), |B|^2, Gauss curvature,
and the tangential/normal split of the radial direction from a pole.
Everything is vectorized over point batches.
`radial_frames` stops at first order (metric and radial split) for callers
that need only r and its gradient, and never builds the chart's second
partials; `frames` adds the second-order state.

N is `SpaceForm.normal_seed` (a cross product, Lorentzian on the
hyperboloid) with its tangential roundoff projected out once: on the
hyperbolic catenoid max |H| at r in (8, 9) is then 2e-12, against 3e-5
for the bare seed.  D_ij are the model-covariant second partials,
F_ij + b g_ij F on the hyperboloid (<F_ij, F>_M = -g_ij by differentiating
tangency).  The correction is orthogonal to N in exact arithmetic, but
<F, N> carries roundoff that g_ij ~ e^{2r} amplifies: without it b_11 is
off by 0.1 at r in (6, 7).

`batch_map` runs the independent radii of a schedule on every CPU, in
the caller and forked worker processes, with results in item order
whatever the CPU count.
"""

from __future__ import annotations

import os
import pickle
import threading
import traceback
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, ImmersionError
from .space_forms import SpaceForm

Jet = tuple[np.ndarray, ...]

# Most points of one frame batch over a whole grid or a whole radius
# schedule: callers that cover more split the work into blocks of at
# most this many points (one larger unit, a grid row or a ball's
# boundary, goes alone), so the batch temporaries stay small while the
# results stay bitwise those of one batch.  Each process holds at most
# one block's temporaries at a time.
BATCH_POINTS = 16384


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:        # no affinity mask on this platform
        return os.cpu_count() or 1


# Processes that run one map's items: the caller plus _WORKERS - 1
# forked children.
_WORKERS = _cpu_count()

# Claims of one map, each a run of consecutive items named by its first
# index as a 4-byte token: at most one page of tokens, which a pipe
# always holds, so they are written before any child exists.
_MAX_CLAIMS = 1024

# `_LOCAL.inside` marks a thread that runs a map's items (and every
# child, which forks from such a thread), so that a map called from an
# item runs inline.
_LOCAL = threading.local()


def batch_map(fn: Callable, items: Iterable) -> list:
    """[fn(x) for x in items], with the items spread over the CPUs.

    A map of two or more items forks ``_WORKERS - 1`` children.  The
    caller and the children claim the items in order from one pipe of
    claim tokens (a 4-byte read from a pipe is atomic) and run each
    claimed item inline, so a process that finishes early takes the next
    claim.  A child pickles back its ``{index: (ok, result or
    exception)}`` through a pipe of its own and leaves by `os._exit`;
    the caller reaps every child before it returns, also when an item
    or the caller itself raises.  Results come back in item order, and
    the first exception in item order is raised, as the serial loop
    would; a process whose item raises withdraws the unclaimed items,
    so later items may not run.

    Items must be independent and return what they compute: a write
    made in a child is lost.  A map called from inside an item runs
    inline, and so does every map on one CPU or where `os.fork` does not
    exist.  Results never depend on the CPU count.  Workers are forked,
    not spawned, because the items read the caller's field and cell
    cache, which a spawned worker would have to receive pickled; the
    package starts no thread, so a fork copies no lock another thread
    holds.
    """
    items = list(items)
    workers = min(_WORKERS, len(items))
    if (workers <= 1 or getattr(_LOCAL, "inside", False)
            or not hasattr(os, "fork")):
        return [fn(x) for x in items]
    per = -(-len(items) // _MAX_CLAIMS)
    claims, ready = os.pipe()
    os.write(ready, b"".join(start.to_bytes(4, "little")
                             for start in range(0, len(items), per)))
    os.close(ready)
    children, sent, outcome = [], [], {}
    _LOCAL.inside = True
    try:
        for _ in range(workers - 1):
            back, send = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(back)
                _child(fn, items, per, claims, send)
            os.close(send)
            children.append((pid, back))
        _run_claims(fn, items, per, claims, outcome)
    finally:
        _LOCAL.inside = False
        _withdraw(claims)          # when the caller raised
        for pid, back in children:
            with os.fdopen(back, "rb") as stream:
                data = stream.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            sent.append((status, data))
        os.close(claims)
    for status, data in sent:
        if status == 0:
            outcome.update(pickle.loads(data))
    results = []
    for i in range(len(items)):
        if i not in outcome:
            raise RuntimeError(
                f"batch_map: item {i} has no result; worker exit statuses "
                f"{[status for status, _ in sent]}")
        ok, value = outcome[i]
        if not ok:
            raise value
        results.append(value)
    return results


def _run_claims(fn: Callable, items: list, per: int, claims: int,
                outcome: dict) -> None:
    """Run the items of each claim read from ``claims`` into ``outcome``,
    until no claim is left or an item raises."""
    while token := os.read(claims, 4):
        start = int.from_bytes(token, "little")
        for i in range(start, min(start + per, len(items))):
            try:
                outcome[i] = (True, fn(items[i]))
            except Exception as exc:  # noqa: BLE001 - raised by the caller
                outcome[i] = (False, exc)
                _withdraw(claims)
                return


def _withdraw(claims: int) -> None:
    """Take every claim left in the pipe, so no process starts another.

    Every write end is closed before the first fork, so the pipe reads
    empty instead of blocking, and a read of a multiple of 4 bytes takes
    whole tokens.
    """
    while os.read(claims, 4096):
        pass


def _child(fn: Callable, items: list, per: int, claims: int,
           send: int) -> None:
    """A forked worker: run claims, send back the outcomes, exit."""
    status = 1
    try:
        outcome = {}
        _run_claims(fn, items, per, claims, outcome)
        with os.fdopen(send, "wb") as stream:
            stream.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    except Exception:  # noqa: BLE001 - reported, and the status says so
        traceback.print_exc()
    finally:
        # Never return into the caller's stack, nor flush its buffers.
        os._exit(status)


# The values of `ParametricSurface.symmetry`.
SYMMETRIES = (None, "u_shift", "dihedral")


@dataclass(frozen=True)
class ParametricSurface:
    """Immersed chart with analytic partials.

    `jet(U, V, order)` takes (U, V) of any two broadcastable shapes (a
    grid may come as a column of u and a row of v) and returns the
    partials of F up to `order` (a required argument), each an array of
    shape (dim,) + the broadcast shape: (F,) for order 0, (F, F_u, F_v)
    for order 1 and (F, F_u, F_v, F_uu, F_uv, F_vv) for order 2.  A
    chart computes only the terms it returns, and a lower-order jet
    equals the leading entries of a higher-order one bitwise.  At orders
    0 and 1 `jet` must also take complex (U, V) and return the analytic
    continuation of those partials as complex arrays, which the Hessian
    route of `functionals` reads by complex step.  The domain is a
    coordinate rectangle whose v direction is never periodic;
    `periodic_u` marks a chart that wraps in u (evaluation outside the
    interval must then be well defined).
    The default pole is the image of the chart origin.

    `symmetry` declares ambient isometries of the surface that the
    full-cell quadrature cache may use, one of ``SYMMETRIES``:

    * None (the default): none is used, and every cell is integrated;
    * ``"u_shift"``: every shift u -> u + c is induced by an ambient
      isometry carrying the surface to itself (a rotation, screw motion,
      translation or boost), so every pole-free quantity of `frames`
      (metric, |B|^2, K, ...) depends on v alone.  The cache integrates
      each row's cell at u = 0, so the chart must be periodic or its
      u-interval must contain 0;
    * ``"dihedral"``: u -> -u, v -> -v and u <-> v are induced by ambient
      isometries, on a non-periodic domain centred at the origin.  The
      cache integrates one octant of cells (one quadrant when the grid
      or the domain is not square) and unfolds it by reflection.

    `mirror_u` and `mirror_v` declare the chart reflections that the
    cut-cell quadrature may use: each is None or a sign vector S of
    length ``form.dim`` with entries +-1 such that F(-u, v) = S F(u, v)
    (for `mirror_u`) or F(u, -v) = S F(u, v) (for `mirror_v`).  A
    coordinate sign flip is an isometry of R^3 and of the hyperboloid,
    so the reflection carries the surface to itself, and a field whose
    pole S fixes has mirror-symmetric balls.  Unlike `symmetry`, which
    says which pole-free quantities repeat across the chart whatever the
    pole, a mirror is used only where it fixes the pole.  The mirrored
    axis must be centred at 0 (a periodic u-interval must start at 0),
    so that it maps the grid to itself.

    A declaration is checked when the surface is built: an unknown value,
    ``"u_shift"`` on a non-periodic domain whose u-interval excludes 0,
    ``"dihedral"`` on a periodic or off-centre domain, or a mirror that
    is not a +-1 vector of length ``form.dim`` or lies on an off-centre
    axis, raises `ConfigError`.
    """

    form: SpaceForm
    domain: tuple[tuple[float, float], tuple[float, float]]
    jet: Callable[[np.ndarray, np.ndarray, int], Jet]
    label: str
    periodic_u: bool = False
    symmetry: str | None = None
    mirror_u: tuple[int, ...] | None = None
    mirror_v: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.symmetry not in SYMMETRIES:
            raise ConfigError(
                f"chart {self.label!r}: symmetry must be one of "
                f"{SYMMETRIES}, got {self.symmetry!r}"
            )
        (u0, u1), (v0, v1) = self.domain
        if self.symmetry == "u_shift" and not (self.periodic_u
                                                or u0 < 0.0 < u1):
            raise ConfigError(
                f"chart {self.label!r}: symmetry 'u_shift' needs a periodic "
                f"domain or a u-interval containing 0, got {self.domain}"
            )
        if self.symmetry == "dihedral" and (self.periodic_u or u0 != -u1
                                            or v0 != -v1):
            raise ConfigError(
                f"chart {self.label!r}: symmetry 'dihedral' needs a "
                f"non-periodic domain centred at the origin, got "
                f"{self.domain}"
            )
        centred = (u0 == 0.0 if self.periodic_u else u0 == -u1, v0 == -v1)
        for name, signs, ok in zip(("mirror_u", "mirror_v"),
                                   (self.mirror_u, self.mirror_v), centred):
            if signs is None:
                continue
            if (len(signs) != self.form.dim
                    or any(s not in (1, -1) for s in signs)):
                raise ConfigError(
                    f"chart {self.label!r}: {name} must be {self.form.dim} "
                    f"signs +-1, got {signs!r}"
                )
            if not ok:
                raise ConfigError(
                    f"chart {self.label!r}: {name} needs its axis centred "
                    f"at 0 (a periodic u-interval starting at 0), got "
                    f"{self.domain}"
                )

    def eval(self, U, V) -> np.ndarray:
        return self.jet(np.asarray(U, dtype=np.float64),
                        np.asarray(V, dtype=np.float64), 0)[0]

    def default_pole(self) -> np.ndarray:
        return self.eval(np.float64(0.0), np.float64(0.0))


@dataclass
class FrameBatch:
    """Per-point geometric state over a batch of chart points.

    Position, partials and metric are always present.  The second-order
    fields (unit normal N, scalar second form b_ij, scalar mean curvature
    H, |B|^2, K) are None on a batch from `radial_frames`; the radial
    fields are populated only when a pole was supplied.  Ambient vectors
    have shape (dim,) + U.shape, scalars U.shape and gradPr U.shape + (2,).
    """

    F: np.ndarray
    Fu: np.ndarray
    Fv: np.ndarray
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    detg: np.ndarray
    N: np.ndarray | None = None               # ambient unit normal
    b11: np.ndarray | None = None             # second form <D_ij, N>
    b12: np.ndarray | None = None
    b22: np.ndarray | None = None
    H: np.ndarray | None = None               # half the trace of g^-1 b
    normBsq: np.ndarray | None = None
    K: np.ndarray | None = None
    r: np.ndarray | None = None
    radial: np.ndarray | None = None          # ambient unit radial direction
    gradPr: np.ndarray | None = None          # contravariant chart components
    normGradPr: np.ndarray | None = None
    normGradPerp: np.ndarray | None = None

    def second_form(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """b(x, y) of chart-component vectors; B(x, y) = b(x, y) N."""
        x1, x2 = x[..., 0], x[..., 1]
        y1, y2 = y[..., 0], y[..., 1]
        return (self.b11 * x1 * y1 + self.b12 * (x1 * y2 + x2 * y1)
                + self.b22 * x2 * y2)

    def metric_dot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Induced-metric inner product of chart-component vectors."""
        return (self.g11 * x[..., 0] * y[..., 0]
                + self.g12 * (x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0])
                + self.g22 * x[..., 1] * y[..., 1])

    def rotate90(self, x: np.ndarray) -> np.ndarray:
        """Rotate a chart-component vector by +90 degrees in the metric.

        The result is g-orthogonal to x with the same g-norm, and the pair
        (x, rotated) is positively oriented in the chart.
        """
        w = np.sqrt(self.detg)
        e1 = -(self.g12 * x[..., 0] + self.g22 * x[..., 1]) / w
        e2 = (self.g11 * x[..., 0] + self.g12 * x[..., 1]) / w
        return np.stack([e1, e2], axis=-1)


_DET_FLOOR = 1e-14


def _first_order(surface: ParametricSurface, F, Fu, Fv, pole) -> FrameBatch:
    """Metric and radial split from the first partials of the chart."""
    form = surface.form
    g11 = form.inner(Fu, Fu)
    g12 = form.inner(Fu, Fv)
    g22 = form.inner(Fv, Fv)
    detg = g11 * g22 - g12 * g12
    if np.any(detg <= _DET_FLOOR):
        raise ImmersionError(
            f"degenerate metric on chart {surface.label!r}: "
            f"min det g = {float(np.min(detg)):.3e}"
        )
    batch = FrameBatch(F=F, Fu=Fu, Fv=Fv, g11=g11, g12=g12, g22=g22,
                       detg=detg)

    if pole is not None:
        pole = np.asarray(pole, dtype=np.float64)
        batch.r, batch.radial = form.radial_split(pole, F)
        w1 = form.inner(batch.radial, Fu)
        w2 = form.inner(batch.radial, Fv)
        a1 = (g22 * w1 - g12 * w2) / detg
        a2 = (g11 * w2 - g12 * w1) / detg
        batch.gradPr = np.stack([a1, a2], axis=-1)
        normsq = a1 * w1 + a2 * w2
        batch.normGradPr = np.sqrt(np.maximum(normsq, 0.0))
        batch.normGradPerp = np.sqrt(np.maximum(1.0 - normsq, 0.0))
    return batch


def radial_frames(surface: ParametricSurface, U, V,
                  pole: np.ndarray | None = None) -> FrameBatch:
    """First-order frame: position, partials, metric and radial split.

    For callers that need only r and its tangential gradient (level-set
    projection, curve marching, field sampling).  The fields it fills
    are computed by the same code as in `frames`, so they agree bitwise.
    """
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    F, Fu, Fv = surface.jet(U, V, 1)
    return _first_order(surface, F, Fu, Fv, pole)


def frames(surface: ParametricSurface, U, V,
           pole: np.ndarray | None = None) -> FrameBatch:
    """Evaluate the full geometric frame at a batch of chart points."""
    form = surface.form
    ip = form.inner
    U = np.asarray(U, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    F, Fu, Fv, Fuu, Fuv, Fvv = surface.jet(U, V, 2)
    batch = _first_order(surface, F, Fu, Fv, pole)
    g11, g12, g22, detg = batch.g11, batch.g12, batch.g22, batch.detg

    # Shape operator S = g^-1 b; its first factor also projects the seed.
    inv11 = g22 / detg
    inv12 = -g12 / detg
    inv22 = g11 / detg
    X = form.normal_seed(F, Fu, Fv)
    w1, w2 = ip(X, Fu), ip(X, Fv)
    X = X - (inv11 * w1 + inv12 * w2) * Fu - (inv12 * w1 + inv22 * w2) * Fv
    XX = ip(X, X)
    if not np.all(XX > 0.0):
        raise ImmersionError(
            f"degenerate normal on chart {surface.label!r}: "
            f"min <X,X> = {float(np.nanmin(XX)):.3e}"
        )
    N = X / np.sqrt(XX)

    b11, b12, b22 = ip(Fuu, N), ip(Fuv, N), ip(Fvv, N)
    if form.curved:
        bFN = form.b * ip(F, N)   # covariant correction F_ij + b g_ij F
        b11, b12, b22 = b11 + bFN * g11, b12 + bFN * g12, b22 + bFN * g22
    s11 = inv11 * b11 + inv12 * b12
    s12 = inv11 * b12 + inv12 * b22
    s21 = inv12 * b11 + inv22 * b12
    s22 = inv12 * b12 + inv22 * b22

    batch.N = N
    batch.b11, batch.b12, batch.b22 = b11, b12, b22
    batch.H = 0.5 * (s11 + s22)
    batch.normBsq = np.maximum(s11 * s11 + 2.0 * s12 * s21 + s22 * s22, 0.0)
    batch.K = form.b + (b11 * b22 - b12 * b12) / detg
    return batch
