"""Symbol-major frame blocks and lockstep decoding.

A lane block holds F frames as one C-ordered (n, F) float64 array, so
element i of frame s sits at flat position i * F + s: all F copies of a
symbol are adjacent, which is what lets the kernels stream one edge
across every lane.  Lockstep decoding is bit-identical to decoding each
frame alone; with early termination a converged lane freezes while the
rest keep iterating.  A decode reads its block and never writes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import ParityCheckCode
from .decoder import DecodeOutcome, DecoderConfig, _decode_lanes, _real_llrs

__all__ = ["BatchOutcome", "interleave", "deinterleave", "decode_batch"]


@dataclass(frozen=True)
class BatchOutcome:
    """Decode outcomes of F frames, in frame order, as arrays.

    bits is (F, n) uint8, the transpose view of the kernel's lane-major
    output; iterations and syndrome_ok are (F,).  outcome[s] is frame s
    as a DecodeOutcome whose bits is a view of row s.
    """

    bits: np.ndarray
    iterations: np.ndarray
    syndrome_ok: np.ndarray

    def __len__(self):
        return self.bits.shape[0]

    def __getitem__(self, s):
        return DecodeOutcome(bits=self.bits[s], iterations_run=int(self.iterations[s]),
                             syndrome_ok=bool(self.syndrome_ok[s]))

    def __iter__(self):
        return (self[s] for s in range(len(self)))


def interleave(frames) -> np.ndarray:
    """Pack F equal-length frames, (F, n), into the (n, F) lane block."""
    arr = _real_llrs(frames)
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError("frames must be a 2-D stack of one or more "
                         "equal-length, non-empty rows")
    return np.ascontiguousarray(arr.T)


def deinterleave(lanes: np.ndarray) -> np.ndarray:
    """Unpack an (n, F) lane block back to an (F, n) stack of frames."""
    return lanes.T.copy()


def decode_batch(code: ParityCheckCode, lanes, config: DecoderConfig) -> BatchOutcome:
    """Decode the F lanes of an (n, F) block in lockstep.

    Every lane follows the same arithmetic order as the single-frame
    decoder, so outcomes match per-frame decoding exactly, including
    iterations_run under early termination.
    """
    lanes = _real_llrs(lanes)
    if lanes.ndim != 2 or lanes.shape[1] == 0:
        raise ValueError(f"lanes must be an (n, F) block with F >= 1, "
                         f"got shape {lanes.shape}")
    bits, iters, ok, _ = _decode_lanes(code, lanes, config)
    return BatchOutcome(bits.T, iters, ok)
