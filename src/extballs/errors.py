"""Exception hierarchy for extballs.

Every failure mode that callers are expected to handle gets its own class so
the CLI can map exceptions to exit codes without string matching.
"""


class GeometryError(Exception):
    """Base class for all extballs errors."""


class ConfigError(GeometryError):
    """Malformed or inconsistent run configuration."""


class ModelError(GeometryError):
    """A point or vector violates the ambient model constraint."""


class PoleOffModel(ModelError):
    """The requested pole does not lie on the ambient model manifold."""


class PoleSingularity(GeometryError):
    """Radial quantities requested at (or too close to) the pole."""


class ImmersionError(GeometryError):
    """The chart fails to be an immersion where evaluation was requested."""


class ConstructionError(GeometryError):
    """A catalog surface failed its construction-time correctness oracle."""


class DomainTooSmall(GeometryError):
    """The chart domain does not cover the largest requested extrinsic ball."""


class CriticalRadius(GeometryError):
    """The requested radius is too close to a critical value of the distance."""

    def __init__(self, t: float, detail: str = ""):
        self.t = t
        self.detail = detail
        msg = f"radius t={t:.6g} meets a critical level of the distance"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def __reduce__(self):
        # args holds only the message: rebuild from (t, detail), so the
        # error survives pickling (a `batch_map` item run in a worker).
        return type(self), (self.t, self.detail)
