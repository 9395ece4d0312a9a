"""Lane blocks: interleave law, round trips, lockstep equivalence."""

import numpy as np
import pytest

from streamdec import (
    AwgnChannel,
    DecoderConfig,
    decode_batch,
    decode_frame,
    deinterleave,
    from_dense,
    interleave,
    llr_from_channel,
    modulate_bpsk,
    random_regular_code,
    transmit,
)

from streamdec import _kernels_np, _kernels_numba
from streamdec.decoder import LLR_CLAMP, _decode_lanes

from oracles import H_EXAMPLE

SCHEDULES = ("flooding", "layered")


@pytest.fixture(scope="module")
def code10():
    return from_dense(H_EXAMPLE)


def noisy_frames(code, count, ebno, seed):
    ch = AwgnChannel(ebno, 0.5, seed=seed)
    sym = modulate_bpsk(np.zeros(code.n, dtype=np.uint8))
    return np.array([llr_from_channel(ch, transmit(ch, sym, i)) for i in range(count)])


def test_interleave_law_two_frames():
    batch = interleave([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    assert batch.shape == (3, 2) and batch.dtype == np.float64
    assert batch.flags.c_contiguous
    assert batch.ravel().tolist() == [1.0, 10.0, 2.0, 20.0, 3.0, 30.0]


def test_interleave_single_frame_identity():
    frame = np.arange(7, dtype=np.float64)
    batch = interleave(frame[None, :])
    assert batch.ravel().tolist() == frame.tolist()
    assert deinterleave(batch)[0].tolist() == frame.tolist()


def test_round_trip_random_shapes():
    rng = np.random.default_rng(31)
    for _ in range(100):
        f = int(rng.integers(1, 12))
        n = int(rng.integers(1, 50))
        frames = rng.normal(size=(f, n))
        back = deinterleave(interleave(frames))
        assert np.array_equal(back, frames)


def test_interleave_rejects_ragged_and_empty():
    with pytest.raises(ValueError):
        interleave([[1.0, 2.0], [3.0]])
    with pytest.raises(ValueError):
        interleave(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        interleave(np.zeros((2, 0)))  # frames of no symbols
    with pytest.raises(ValueError):
        interleave(np.zeros(5))  # 1-D input is ambiguous
    for frames in (np.zeros((2, 3), dtype=complex), [["0", "1"]]):
        with pytest.raises(ValueError, match="real numbers"):
            interleave(frames)


def test_lane_view_matches_law():
    lanes = interleave([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert lanes.shape == (2, 3)
    assert lanes[:, 0].tolist() == [1.0, 2.0]
    assert lanes[:, 2].tolist() == [5.0, 6.0]


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_noiseless_batch_replicates(code10, schedule):
    frames = np.tile(np.full(10, 4.0), (4, 1))
    config = DecoderConfig(schedule=schedule, early_termination=True)
    out = decode_batch(code10, interleave(frames), config)
    assert len(out) == 4
    for o in out:
        assert o.bits.tolist() == [0] * 10
        assert o.iterations_run == 1
        assert o.syndrome_ok


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("early", [True, False])
def test_batch_matches_scalar(code10, schedule, early):
    frames = noisy_frames(code10, 16, 3.0, seed=5)
    config = DecoderConfig(schedule=schedule, max_iterations=12,
                           early_termination=early)
    singles = [decode_frame(code10, f, config) for f in frames]
    batched = decode_batch(code10, interleave(frames), config)
    for got, want in zip(batched, singles):
        assert np.array_equal(got.bits, want.bits)
        assert got.iterations_run == want.iterations_run
        assert got.syndrome_ok == want.syndrome_ok
    # any (n, F) layout decodes alike, here a transposed, F-ordered view
    strided = decode_batch(code10, frames.T, config)
    assert np.array_equal(strided.bits, batched.bits)
    assert np.array_equal(strided.iterations, batched.iterations)


# two full flooding chunks and a remainder
CHUNKED_F = 2 * _kernels_np._FLOOD_LANES + 6


@pytest.mark.parametrize("early", [True, False])
def test_flooding_chunks_match_per_frame(early):
    code = random_regular_code(96, 48, 6, seed=0)
    frames = noisy_frames(code, CHUNKED_F, 2.0, seed=21)
    config = DecoderConfig(schedule="flooding", max_iterations=10,
                           early_termination=early, backend="numpy")
    whole = _decode_lanes(code, interleave(frames), config)
    if early:  # lanes leave their chunks at different sweeps
        assert len(set(whole[1].tolist())) > 2
    for s, frame in enumerate(frames):
        one = _decode_lanes(code, frame.reshape(-1, 1), config)
        # bits, iterations, syndrome flag and posterior, bit for bit
        for got, want in zip(whole, one):
            assert got[..., s].tobytes() == want[..., 0].tobytes()


def test_wide_layered_block_matches_per_frame():
    # a 576x288 block shaped like a BER sweep's: 32 frames from each of
    # 1.5, 3 and 4 dB in one 96-lane layered decode, lanes leaving the
    # working arrays at many sweeps, each written back as it leaves
    code = random_regular_code(576, 288, 6, seed=1)
    frames = np.concatenate([noisy_frames(code, 32, ebno, seed=40)
                             for ebno in (1.5, 3.0, 4.0)])
    config = DecoderConfig(schedule="layered", max_iterations=20,
                           early_termination=True, normalization=0.75,
                           backend="numpy")
    whole = _decode_lanes(code, interleave(frames), config)
    assert len(set(whole[1][whole[2]].tolist())) >= 5  # sweeps lanes left at
    assert not whole[2].all()  # some lanes run every sweep
    for s, frame in enumerate(frames):
        one = _decode_lanes(code, frame.reshape(-1, 1), config)
        # bits, iterations, syndrome flag and posterior, bit for bit
        for got, want in zip(whole, one):
            assert got[..., s].tobytes() == want[..., 0].tobytes()


def test_lanes_write_back_on_drop_and_stay_c_ordered(code10):
    # lane s turns all-positive, which satisfies every check, in sweep
    # s + 1; lane 4 never does.  Row 1 of the posterior records the sweep
    # that last wrote it, so each lane must be written back as it leaves.
    post = np.ones((code10.n, 5))
    post[0] = -1.0  # one 1 bit: a nonzero syndrome
    lanes = _kernels_np._Lanes(code10, 4, True, post, np.zeros((3, 5)))
    for it, (work, extra) in enumerate(lanes, start=1):
        # a[:, keep] would leave Fortran-ordered arrays after a drop
        assert work.flags.c_contiguous and extra.flags.c_contiguous
        work[1] = it
        work[0, lanes.live == it - 1] = 1.0
    bits, iters, ok, final = lanes.result()
    assert final is post
    assert iters.tolist() == [1, 2, 3, 4, 4]
    assert ok.tolist() == [True, True, True, True, False]
    assert post[1].tolist() == [1, 2, 3, 4, 4]
    assert post[0].tolist() == [1, 1, 1, 1, -1]
    assert bits[0].tolist() == [0, 0, 0, 0, 1]


def test_chunked_flooding_is_one_kernel_call(monkeypatch):
    # a tracer wraps the module attribute, so the chunks must not go
    # through it: one decode is one kernel span
    calls = []
    kernel = _kernels_np.decode_flooding

    def counting(code, llr, *args):
        calls.append(llr.shape[1])
        return kernel(code, llr, *args)

    monkeypatch.setattr(_kernels_np, "decode_flooding", counting)
    code = random_regular_code(96, 48, 6, seed=0)
    config = DecoderConfig(schedule="flooding", backend="numpy")
    decode_batch(code, interleave(noisy_frames(code, CHUNKED_F, 2.0, seed=21)), config)
    assert calls == [CHUNKED_F]


def test_lane_isolation(code10):
    # corrupting one frame must not change any other lane's outcome
    frames = noisy_frames(code10, 8, 2.0, seed=9)
    config = DecoderConfig(schedule="layered", max_iterations=10,
                           early_termination=True)
    base = decode_batch(code10, interleave(frames), config)
    mutated = frames.copy()
    mutated[3] = -mutated[3]
    out = decode_batch(code10, interleave(mutated), config)
    for s in range(8):
        if s == 3:
            continue
        assert np.array_equal(out[s].bits, base[s].bits)
        assert out[s].iterations_run == base[s].iterations_run


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_decode_leaves_input_unchanged(code10, schedule):
    # every decode clips into its own buffer; LLRs beyond the clamp (64)
    # would show a write to the input
    config = DecoderConfig(schedule=schedule, max_iterations=4)
    frames = np.random.default_rng(8).normal(0.0, 200.0, (4, code10.n))
    batch = interleave(frames)
    before = batch.tobytes()
    decode_batch(code10, batch, config)
    assert batch.tobytes() == before
    frame = frames[0].copy()
    decode_frame(code10, frame, config)
    assert frame.tobytes() == frames[0].tobytes()
    for kernels in (_kernels_np, _kernels_numba):
        getattr(kernels, f"decode_{schedule}")(code10, batch, 4, True, 1.0, LLR_CLAMP)
        assert batch.tobytes() == before


def test_decode_batch_dimension_mismatch(code10):
    config = DecoderConfig(schedule="flooding")
    other = random_regular_code(16, 8, 4, seed=2)
    batch = interleave(np.zeros((2, 16)))
    with pytest.raises(ValueError):
        decode_batch(code10, batch, config)
    assert len(decode_batch(other, batch, config)) == 2
    # a block is (n, F) real numbers with F >= 1; frames go through
    # interleave first
    for bad in (np.zeros(16), np.zeros((16, 2), dtype=complex), np.zeros((16, 0))):
        with pytest.raises(ValueError):
            decode_batch(other, bad, config)


def test_batch_outcome_container(code10):
    config = DecoderConfig(schedule="flooding", early_termination=True)
    out = decode_batch(code10, interleave(np.zeros((3, 10))), config)
    assert len(out) == 3
    assert out[0].syndrome_ok
    assert [o.iterations_run for o in out] == [1, 1, 1]
    assert out.bits.shape == (3, 10) and out.bits.dtype == np.uint8
    assert out.iterations.shape == out.syndrome_ok.shape == (3,)
    for i in range(3):
        assert np.array_equal(out[i].bits, out.bits[i])
        assert np.shares_memory(out[i].bits, out.bits)
