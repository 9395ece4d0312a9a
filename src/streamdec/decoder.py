"""Min-sum decoding of single frames.

Positive LLR favors bit 0; hard decision is bit 1 iff the posterior is
strictly negative, so an exact zero resolves to 0.  ``iterations_run``
counts full sweeps executed: with early termination it is the sweep
whose hard decision first satisfied every check, otherwise
``max_iterations``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels_np import _check_messages
from .backend import get_kernels
from .code import ParityCheckCode

__all__ = [
    "DecoderConfig",
    "DecodeOutcome",
    "check_node_update",
    "decode_flooding",
    "decode_layered",
    "decode_frame",
    "hard_decision",
]

SCHEDULES = ("flooding", "layered")


@dataclass(frozen=True)
class DecoderConfig:
    """Knobs shared by both schedules.

    normalization scales every check-to-variable message (1.0 keeps
    plain min-sum; 0.75 is the usual normalized variant).  llr_clamp
    bounds the magnitude of every stored posterior and message.
    """

    schedule: str
    max_iterations: int = 10
    early_termination: bool = False
    normalization: float = 1.0
    llr_clamp: float = 64.0

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.normalization <= 1.0:
            raise ValueError("normalization must lie in (0, 1]")
        if not (self.llr_clamp > 0.0 and math.isfinite(self.llr_clamp)):
            raise ValueError("llr_clamp must be positive and finite")


@dataclass(frozen=True)
class DecodeOutcome:
    bits: np.ndarray
    iterations_run: int
    syndrome_ok: bool


def hard_decision(posterior) -> np.ndarray:
    """Posterior LLRs to bits: 1 iff strictly negative (ties go to 0)."""
    return (np.asarray(posterior) < 0).astype(np.uint8)


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
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("check_node_update needs a 1-D vector of >= 2 values")
    if not np.isfinite(x).all():
        raise ValueError("incoming values must be finite")
    row = x[None, :, None]
    return _check_messages(row, np.ones(row.shape[:2], dtype=bool),
                           normalization, np.inf)[0, :, 0]


def _decode_lanes(code: ParityCheckCode, lanes: np.ndarray, config: DecoderConfig,
                  backend: str | None = None):
    """Dispatch lane-major (n, F) LLRs to the selected kernel set."""
    if lanes.shape[0] != code.n:
        raise ValueError(f"LLR rows ({lanes.shape[0]}) do not match code n ({code.n})")
    if not np.isfinite(lanes).all():
        raise ValueError("LLRs must be finite")
    k = get_kernels(backend)
    fn = k.decode_flooding if config.schedule == "flooding" else k.decode_layered
    return fn(code, lanes, config.max_iterations, config.early_termination,
              config.normalization, config.llr_clamp)


def _decode_single(code, frame, config, backend, schedule):
    llr = np.asarray(frame, dtype=np.float64)
    if llr.shape != (code.n,):
        raise ValueError(f"frame must have shape ({code.n},)")
    if config.schedule != schedule:
        raise ValueError(f"config.schedule is {config.schedule!r}, expected {schedule!r}")
    bits, iters, ok, _ = _decode_lanes(code, llr.reshape(code.n, 1), config, backend)
    return DecodeOutcome(bits=bits[:, 0].copy(), iterations_run=int(iters[0]),
                         syndrome_ok=bool(ok[0]))


def decode_flooding(code: ParityCheckCode, frame, config: DecoderConfig,
                    backend: str | None = None) -> DecodeOutcome:
    """Strict two-phase min-sum: no check sees same-iteration updates."""
    return _decode_single(code, frame, config, backend, "flooding")


def decode_layered(code: ParityCheckCode, frame, config: DecoderConfig,
                   backend: str | None = None) -> DecodeOutcome:
    """Row-at-a-time min-sum; posteriors refresh inside the sweep."""
    return _decode_single(code, frame, config, backend, "layered")


def decode_frame(code: ParityCheckCode, frame, config: DecoderConfig,
                 backend: str | None = None) -> DecodeOutcome:
    """Decode with whichever schedule the config selects."""
    return _decode_single(code, frame, config, backend, config.schedule)
