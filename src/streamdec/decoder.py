"""Decoder configuration, kernel dispatch and single-frame min-sum decoding.

Positive LLR favors bit 0; hard decision is bit 1 iff the posterior is
strictly negative, so an exact zero resolves to 0.  ``iterations_run``
counts full sweeps executed: with early termination it is the sweep
whose hard decision first satisfied every check, otherwise
``max_iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ._kernels_np import _check_messages
from .backend import active_backend, available_backends, get_kernels
from .code import ParityCheckCode

__all__ = [
    "DecoderConfig",
    "DecodeOutcome",
    "check_node_update",
    "decode_frame",
]

SCHEDULES = ("flooding", "layered")

# bounds the magnitude of every stored posterior and message
LLR_CLAMP = 64.0


def _check_normalization(normalization):
    if not 0.0 < normalization <= 1.0:  # NaN fails too
        raise ValueError("normalization must lie in (0, 1]")


@dataclass(frozen=True)
class DecoderConfig:
    """Knobs shared by both schedules.

    flooding is strict two-phase min-sum: no check sees same-sweep
    updates.  layered refreshes posteriors row by row inside the sweep.
    normalization scales every check-to-variable message (1.0 keeps
    plain min-sum; 0.75 is the usual normalized variant).  Every stored
    posterior and message is clipped to +-``LLR_CLAMP``; a known defect
    is that a layered decode without early termination loses the channel
    information of a posterior once it saturates there, so its bit
    errors can far exceed flooding's.  backend names
    the kernel set, "numpy" or "numba"; None is replaced, when the config
    is made, by the process default (STREAMDEC_BACKEND, else numba when
    importable), so ``config.backend`` always names a kernel set and an
    unusable default raises ValueError here.  Both sets give
    bit-identical results.
    """

    schedule: str
    max_iterations: int = 10
    early_termination: bool = False
    normalization: float = 1.0
    backend: str | None = None

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        if not isinstance(self.max_iterations, Integral) or self.max_iterations < 1:
            raise ValueError(f"max_iterations must be an integer >= 1, "
                             f"got {self.max_iterations!r}")
        _check_normalization(self.normalization)
        if self.backend is None:
            object.__setattr__(self, "backend", active_backend())
        elif self.backend not in available_backends():
            raise ValueError(f"backend must be None or one of {available_backends()}, "
                             f"got {self.backend!r}")


@dataclass(frozen=True)
class DecodeOutcome:
    bits: np.ndarray
    iterations_run: int
    syndrome_ok: bool


def _real_llrs(values) -> np.ndarray:
    """values as float64, or ValueError unless they are real numbers; a
    float64 array comes back as itself."""
    try:
        arr = np.asarray(values)
    except ValueError as e:  # ragged nesting
        raise ValueError(f"LLRs must be an array of real numbers: {e}") from None
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"LLRs must be real numbers, not {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def check_node_update(values, normalization: float = 1.0) -> np.ndarray:
    """Leave-one-out min-sum row update.

    Output k carries the product of the other signs times the minimum of
    the other magnitudes, scaled by ``normalization``.  One row of the
    kernels' two-smallest-magnitudes update (unclamped); exactly equal to
    the naive leave-one-out computation.

    Parameters
    ----------
    values : array_like
        At least two finite incoming LLRs.
    normalization : float
        In (0, 1], as ``DecoderConfig.normalization``.
    """
    _check_normalization(normalization)
    x = _real_llrs(values)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("check_node_update needs a 1-D vector of >= 2 values")
    if not np.isfinite(x).all():
        raise ValueError("incoming values must be finite")
    return _check_messages(x[:, None, None], normalization, np.inf)[:, 0, 0]


def _decode_lanes(code: ParityCheckCode, lanes: np.ndarray, config: DecoderConfig):
    """Dispatch lane-major (n, F) LLRs to the config's kernel set."""
    if lanes.shape[0] != code.n:
        raise ValueError(f"LLR rows ({lanes.shape[0]}) do not match code n ({code.n})")
    if not np.isfinite(lanes).all():
        raise ValueError("LLRs must be finite")
    k = get_kernels(config.backend)
    fn = k.decode_flooding if config.schedule == "flooding" else k.decode_layered
    return fn(code, lanes, config.max_iterations, config.early_termination,
              config.normalization, LLR_CLAMP)


def decode_frame(code: ParityCheckCode, frame, config: DecoderConfig) -> DecodeOutcome:
    """Decode one (n,) frame with the schedule and kernels the config selects."""
    llr = _real_llrs(frame)
    if llr.shape != (code.n,):
        raise ValueError(f"frame must have shape ({code.n},)")
    bits, iters, ok, _ = _decode_lanes(code, llr.reshape(code.n, 1), config)
    return DecodeOutcome(bits=bits[:, 0], iterations_run=int(iters[0]),
                         syndrome_ok=bool(ok[0]))
