"""Decoder configuration, kernel dispatch and single-frame min-sum decoding.

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
from .backend import active_backend, available_backends, get_kernels
from .code import ParityCheckCode

__all__ = [
    "DecoderConfig",
    "DecodeOutcome",
    "check_node_update",
    "decode_frame",
    "hard_decision",
]

SCHEDULES = ("flooding", "layered")


@dataclass(frozen=True)
class DecoderConfig:
    """Knobs shared by both schedules.

    flooding is strict two-phase min-sum: no check sees same-sweep
    updates.  layered refreshes posteriors row by row inside the sweep.
    normalization scales every check-to-variable message (1.0 keeps
    plain min-sum; 0.75 is the usual normalized variant).  llr_clamp
    bounds the magnitude of every stored posterior and message.  backend
    names the kernel set, "numpy" or "numba"; None is replaced, when the
    config is made, by the process default (STREAMDEC_BACKEND, else numba
    when importable), so ``config.backend`` always names a kernel set and
    an unusable default raises ValueError here.  Both sets give
    bit-identical results.
    """

    schedule: str
    max_iterations: int = 10
    early_termination: bool = False
    normalization: float = 1.0
    llr_clamp: float = 64.0
    backend: str | None = None

    def __post_init__(self):
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.normalization <= 1.0:
            raise ValueError("normalization must lie in (0, 1]")
        if not (self.llr_clamp > 0.0 and math.isfinite(self.llr_clamp)):
            raise ValueError("llr_clamp must be positive and finite")
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
    return _check_messages(x[None, :, None], normalization, np.inf)[0, :, 0]


def _decode_lanes(code: ParityCheckCode, lanes: np.ndarray, config: DecoderConfig):
    """Dispatch lane-major (n, F) LLRs to the config's kernel set.

    Takes ownership of ``lanes``: the numpy kernels clip it in place and
    decode in it, so a caller that keeps its LLRs passes a copy.
    """
    if lanes.shape[0] != code.n:
        raise ValueError(f"LLR rows ({lanes.shape[0]}) do not match code n ({code.n})")
    if not np.isfinite(lanes).all():
        raise ValueError("LLRs must be finite")
    k = get_kernels(config.backend)
    fn = k.decode_flooding if config.schedule == "flooding" else k.decode_layered
    return fn(code, lanes, config.max_iterations, config.early_termination,
              config.normalization, config.llr_clamp)


def decode_frame(code: ParityCheckCode, frame, config: DecoderConfig) -> DecodeOutcome:
    """Decode one (n,) frame with the schedule and kernels the config selects."""
    llr = np.array(frame, dtype=np.float64)  # a copy: the decode owns it
    if llr.shape != (code.n,):
        raise ValueError(f"frame must have shape ({code.n},)")
    bits, iters, ok, _ = _decode_lanes(code, llr.reshape(code.n, 1), config)
    return DecodeOutcome(bits=bits[:, 0], iterations_run=int(iters[0]),
                         syndrome_ok=bool(ok[0]))
