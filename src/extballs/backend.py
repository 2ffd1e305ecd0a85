"""Kernel backend selection.

The grid kernels (stable acosh, cell classification, contour segment
emission) exist twice: a numba @njit version and a pure-numpy version.  The
active implementation is chosen by the EXTBALLS_BACKEND environment variable:

    auto   - numba when importable, numpy otherwise (default)
    numba  - require the jit kernels, fail if numba is missing
    numpy  - force the vectorized numpy kernels

`use_backend` overrides the choice programmatically (tests, benchmarks).
"""

from __future__ import annotations

import functools
import os

from .errors import ConfigError

_ENV_VAR = "EXTBALLS_BACKEND"
_VALID = ("auto", "numba", "numpy")
_override: str | None = None


@functools.cache
def _numba_available() -> bool:
    """Whether numba imports; probed once per process.

    A failed import is not cached by Python, so without the memo every
    kernel lookup would retry it.
    """
    try:
        import numba  # noqa: F401
    except ImportError:  # pragma: no cover - numba is a declared dependency
        return False
    return True


def requested_backend() -> str:
    """The backend asked for via override or environment, unresolved."""
    if _override is not None:
        return _override
    value = os.environ.get(_ENV_VAR, "auto").strip().lower()
    if value not in _VALID:
        raise ConfigError(
            f"{_ENV_VAR}={value!r} is not one of {', '.join(_VALID)}"
        )
    return value


def active_backend() -> str:
    """Resolve the request to a concrete backend name: 'numba' or 'numpy'."""
    mode = requested_backend()
    if mode == "auto":
        return "numba" if _numba_available() else "numpy"
    if mode == "numba" and not _numba_available():
        raise ConfigError("EXTBALLS_BACKEND=numba but numba is not importable")
    return mode


def use_backend(name: str | None) -> None:
    """Force a backend (\"numba\"/\"numpy\"), or None to return to the env."""
    global _override
    if name is not None and name not in _VALID:
        raise ConfigError(f"unknown backend {name!r}")
    _override = name


def get_kernels():
    """Return the module implementing the kernel API for the active backend."""
    if active_backend() == "numba":
        from . import kernels_numba
        return kernels_numba
    from . import kernels_numpy
    return kernels_numpy
