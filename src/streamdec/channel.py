"""BPSK over AWGN with counter-based per-frame noise.

Sign convention: bit 0 maps to +1.0, bit 1 to -1.0, so a positive LLR
favors bit 0.  Noise for frame i is drawn from a generator seeded by
(seed, i); regenerating any frame needs no channel state, and the
draw order across frames is irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["AwgnChannel", "modulate_bpsk", "frame_noise", "transmit",
           "llr_from_channel"]


@dataclass(frozen=True)
class AwgnChannel:
    """Channel parameters; noise_variance is derived, never stored.

    sigma^2 = 1 / (2 * rate * 10**(ebno_db / 10)) per BPSK dimension.
    """

    ebno_db: float
    rate: float
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.ebno_db):
            raise ValueError("ebno_db must be finite")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError("rate must lie in (0, 1]")
        try:
            nv = self.noise_variance
        except (OverflowError, ZeroDivisionError):
            nv = 0.0
        if not 0.0 < nv < math.inf:
            raise ValueError(f"ebno_db {self.ebno_db} gives no finite, positive "
                             "noise variance")

    @property
    def noise_variance(self) -> float:
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.ebno_db / 10.0))


def modulate_bpsk(bits) -> np.ndarray:
    """Map bits to antipodal symbols: 0 -> +1.0, 1 -> -1.0."""
    b = np.asarray(bits)
    if not np.isin(b, (0, 1)).all():
        raise ValueError("bits must be 0 or 1")
    return 1.0 - 2.0 * b.astype(np.float64)


def frame_noise(seed: int, frame_index: int, shape) -> np.ndarray:
    """Standard-normal noise of frame ``frame_index`` under ``seed``.

    It does not depend on Eb/N0: ``transmit`` scales it by the channel's
    sigma, so one draw serves every point of a sweep.
    """
    if frame_index < 0:
        raise ValueError("frame_index must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence((seed, frame_index)))
    return rng.standard_normal(shape)


def transmit(channel: AwgnChannel, symbols, frame_index: int = 0) -> np.ndarray:
    """Add white Gaussian noise; frame_index selects the noise stream."""
    s = np.asarray(symbols, dtype=np.float64)
    return s + math.sqrt(channel.noise_variance) * frame_noise(
        channel.seed, frame_index, s.shape)


def llr_from_channel(channel: AwgnChannel, received) -> np.ndarray:
    """Per-sample LLR: 2 y / sigma^2, positive favoring bit 0."""
    return 2.0 * np.asarray(received, dtype=np.float64) / channel.noise_variance
