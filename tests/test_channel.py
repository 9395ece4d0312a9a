"""Channel model: modulation, noise determinism, LLR scaling."""

import math

import numpy as np
import pytest

from streamdec.channel import AwgnChannel, llr_from_channel, modulate_bpsk, transmit


def test_modulate_examples():
    out = modulate_bpsk([0, 1, 0])
    assert out.tolist() == [1.0, -1.0, 1.0]
    assert out.dtype == np.float64


def test_modulate_rejects_non_binary():
    with pytest.raises(ValueError):
        modulate_bpsk([0, 2])


@pytest.mark.parametrize("ebno,rate", [(0.0, 0.5), (3.0, 0.5), (12.0, 0.6), (2.0, 1.0)])
def test_noise_variance_formula(ebno, rate):
    ch = AwgnChannel(ebno_db=ebno, rate=rate)
    assert ch.noise_variance == pytest.approx(1.0 / (2.0 * rate * 10.0 ** (ebno / 10.0)))


def test_noise_variance_zero_db_half_rate_is_one():
    assert AwgnChannel(0.0, 0.5).noise_variance == pytest.approx(1.0)


def test_channel_validates():
    with pytest.raises(ValueError):
        AwgnChannel(1.0, 0.0)
    with pytest.raises(ValueError):
        AwgnChannel(1.0, 1.5)
    with pytest.raises(ValueError):
        AwgnChannel(float("inf"), 0.5)
    # the noise variance must be finite and positive: these overflow,
    # divide by zero and give an infinite variance
    for ebno in (4000.0, -3300.0, -3100.0):
        with pytest.raises(ValueError, match="noise variance"):
            AwgnChannel(ebno, 0.5)


def test_transmit_deterministic_per_frame():
    ch = AwgnChannel(2.0, 0.5, seed=99)
    s = np.ones(64)
    a = transmit(ch, s, frame_index=3)
    b = transmit(ch, s, frame_index=3)
    c = transmit(ch, s, frame_index=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_transmit_order_independent():
    ch = AwgnChannel(2.0, 0.5, seed=5)
    s = np.ones(32)
    first = [transmit(ch, s, frame_index=i) for i in (0, 1, 2)]
    second = [transmit(ch, s, frame_index=i) for i in (2, 0, 1)]
    assert np.array_equal(first[0], second[1])
    assert np.array_equal(first[2], second[0])


def test_transmit_equals_one_normal_draw_per_frame():
    # the rule before frame_noise existed: s + normal(0, sigma) from the
    # frame's own generator; sweeps rely on it to scale one draw per point
    s = modulate_bpsk(np.random.default_rng(3).integers(0, 2, 200))
    for seed in (0, 7, 12345):
        for ebno, rate in ((-1.0, 0.5), (1.5, 0.5), (3.0, 0.75), (6.0, 0.49)):
            ch = AwgnChannel(ebno, rate, seed=seed)
            for i in (0, 1, 17, 1000):
                rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
                old = s + rng.normal(0.0, math.sqrt(ch.noise_variance), size=s.shape)
                assert transmit(ch, s, frame_index=i).tobytes() == old.tobytes()


def test_transmit_rejects_negative_index():
    with pytest.raises(ValueError):
        transmit(AwgnChannel(2.0, 0.5), np.ones(4), frame_index=-1)


def test_noise_statistics():
    ch = AwgnChannel(1.5, 0.5, seed=1234)
    s = np.zeros(1_000_000)
    noise = transmit(ch, s, frame_index=0)
    assert noise.var() == pytest.approx(ch.noise_variance, rel=0.02)
    assert abs(noise.mean()) < 0.01


def test_llr_scaling():
    ch = AwgnChannel(0.0, 0.5)  # sigma^2 = 1
    y = np.array([1.0, -0.5, 0.0])
    assert llr_from_channel(ch, y).tolist() == [2.0, -1.0, 0.0]


def test_llr_positive_favors_bit_zero():
    ch = AwgnChannel(4.0, 0.5, seed=0)
    sym = modulate_bpsk(np.zeros(1000, dtype=np.uint8))
    llr = llr_from_channel(ch, transmit(ch, sym, 0))
    assert (llr > 0).mean() > 0.95
