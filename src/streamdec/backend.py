"""Kernel backend selection.

Two interchangeable kernel sets exist: numba-jitted loops and pure
numpy.  Both follow the same per-lane arithmetic order, so they produce
bit-identical decodes.  A decoder configuration names its set in
DecoderConfig(backend=...); backend=None is replaced, when the config
is made, by the process default, which the STREAMDEC_BACKEND environment
variable picks ("numba", "numpy", or "auto"; auto prefers numba when
importable).
"""

from __future__ import annotations

import os

_ENV_VAR = "STREAMDEC_BACKEND"

try:
    import numba  # noqa: F401
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if HAVE_NUMBA else ("numpy",)


def active_backend() -> str:
    """Backend chosen by the environment, validated against availability."""
    choice = os.environ.get(_ENV_VAR, "auto").strip().lower()
    if choice in ("", "auto"):
        return "numba" if HAVE_NUMBA else "numpy"
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise ValueError(f"{_ENV_VAR}=numba but numba is not importable")
        return "numba"
    raise ValueError(f"{_ENV_VAR} must be 'auto', 'numba' or 'numpy', got {choice!r}")


def get_kernels(name: str | None = None):
    """Kernel module for a backend name (default: the active one)."""
    name = name or active_backend()
    if name == "numpy":
        from . import _kernels_np
        return _kernels_np
    if name == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError("numba backend requested but numba is not importable")
        from . import _kernels_numba
        return _kernels_numba
    raise ValueError(f"unknown backend {name!r}")
