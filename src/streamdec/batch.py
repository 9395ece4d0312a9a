"""Symbol-major frame batches and lockstep decoding.

A batch holds F frames interleaved so that element i of frame s sits at
flat position i * F + s: all F copies of a symbol are adjacent, which is
what lets the kernels stream one edge across every lane.  Lockstep
decoding is bit-identical to decoding each frame alone; with early
termination a converged lane freezes while the rest keep iterating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import ParityCheckCode
from .decoder import DecodeOutcome, DecoderConfig, _decode_lanes, _real_llrs

__all__ = ["FrameBatch", "BatchOutcome", "interleave", "deinterleave", "decode_batch"]


@dataclass
class FrameBatch:
    """F frames of length n, flattened symbol-major."""

    f: int
    n: int
    data: np.ndarray

    def __post_init__(self):
        if self.f < 1 or self.n < 1:
            raise ValueError("f and n must be >= 1")
        self.data = np.ascontiguousarray(_real_llrs(self.data))
        if self.data.shape != (self.f * self.n,):
            raise ValueError(f"data must be flat with length f*n = {self.f * self.n}")

    def lanes(self) -> np.ndarray:
        """Lane-major (n, f) view of the batch."""
        return self.data.reshape(self.n, self.f)


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


def interleave(frames) -> FrameBatch:
    """Pack F equal-length frames into one symbol-major batch."""
    arr = np.asarray(frames)
    if arr.ndim != 2:
        raise ValueError("frames must be a 2-D stack of equal-length rows")
    f, n = arr.shape
    data = np.ascontiguousarray(arr.T).reshape(-1)
    return FrameBatch(f=f, n=n, data=data)


def deinterleave(batch: FrameBatch) -> np.ndarray:
    """Unpack a batch back to an (F, n) stack of frames."""
    return batch.lanes().T.copy()


def decode_batch(code: ParityCheckCode, batch: FrameBatch,
                 config: DecoderConfig) -> BatchOutcome:
    """Decode all lanes of a batch in lockstep.

    Every lane follows the same arithmetic order as the single-frame
    decoder, so outcomes match per-frame decoding exactly, including
    iterations_run under early termination.
    """
    bits, iters, ok, _ = _decode_lanes(code, batch.lanes().copy(), config)
    return BatchOutcome(bits.T, iters, ok)
