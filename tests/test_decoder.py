"""Decoder core: check-node update, schedules, clamping, invariants."""

import numpy as np
import pytest

from streamdec import (
    DecoderConfig,
    check_node_update,
    decode_flooding,
    decode_frame,
    decode_layered,
    from_dense,
    hard_decision,
    random_regular_code,
    syndrome,
)
from streamdec._kernels_np import _layered_level, decode_flooding as np_flood
from streamdec.channel import AwgnChannel, llr_from_channel, modulate_bpsk, transmit

from oracles import H_EXAMPLE, naive_check_node_update

SCHEDULES = ("flooding", "layered")


@pytest.fixture(scope="module")
def code10():
    return from_dense(H_EXAMPLE)


@pytest.fixture(scope="module")
def code576():
    return random_regular_code(576, 288, 6, seed=21)


@pytest.fixture(scope="module")
def code40():
    # levels of 5, 5, 5, 3, 1 and 1 rows
    return random_regular_code(40, 20, 4, seed=5)


def cfg(schedule, **kw):
    return DecoderConfig(schedule=schedule, **kw)


# --- check-node update -----------------------------------------------------

def test_check_node_worked_example():
    out = check_node_update([2.0, -3.0, 5.0, -7.0])
    assert out.tolist() == [3.0, -2.0, 2.0, -2.0]


def test_check_node_degree_two_swaps():
    assert check_node_update([1.0, 1.0]).tolist() == [1.0, 1.0]
    assert check_node_update([2.0, -3.0]).tolist() == [-3.0, 2.0]


def test_check_node_normalization():
    out = check_node_update([2.0, -3.0], normalization=0.75)
    assert out.tolist() == [0.75 * -3.0, 0.75 * 2.0]


def test_check_node_zero_input_kills_other_outputs():
    out = check_node_update([0.0, 5.0, -6.0])
    assert out.tolist() == [-5.0, 0.0, 0.0]  # sign of exact zero counts as +


def test_check_node_matches_naive_oracle():
    rng = np.random.default_rng(123)
    for _ in range(500):
        d = int(rng.integers(2, 21))
        kind = rng.integers(3)
        if kind == 0:
            x = rng.normal(0, 10, d)
        elif kind == 1:
            x = rng.integers(-8, 9, d).astype(float)  # duplicates and zeros
        else:
            x = rng.choice([-1e-9, 0.0, 1e-9, 3.5, -3.5], d)
        norm = float(rng.choice([1.0, 0.75, 0.5]))
        got = check_node_update(x, norm)
        want = naive_check_node_update(x, norm)
        assert np.array_equal(got, want)


def test_check_node_validates():
    with pytest.raises(ValueError):
        check_node_update([1.0])
    with pytest.raises(ValueError):
        check_node_update([1.0, np.inf])


# --- hard decision ---------------------------------------------------------

def test_hard_decision_tie_goes_to_zero():
    assert hard_decision([0.1, -0.1, 0.0]).tolist() == [0, 1, 0]
    assert hard_decision(np.zeros(4)).tolist() == [0, 0, 0, 0]


# --- basic decode behavior -------------------------------------------------

@pytest.mark.parametrize("schedule", SCHEDULES)
def test_noiseless_converges_first_iteration(code10, schedule):
    frame = np.full(10, 4.0)
    out = decode_frame(code10, frame, cfg(schedule, early_termination=True))
    assert out.bits.tolist() == [0] * 10
    assert out.iterations_run == 1
    assert out.syndrome_ok


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_single_soft_error_every_position(code10, schedule):
    for p in range(10):
        frame = np.full(10, 8.0)
        frame[p] = -8.0
        out = decode_frame(code10, frame, cfg(schedule, max_iterations=20,
                                              early_termination=True))
        assert out.syndrome_ok
        assert out.bits.tolist() == [0] * 10


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_all_negative_gives_all_ones_codeword(code10, schedule):
    # every row of the example code has even degree, so all-ones is a codeword
    assert not syndrome(code10, np.ones(10, dtype=np.uint8)).any()
    out = decode_frame(code10, np.full(10, -4.0), cfg(schedule, early_termination=True))
    assert out.bits.tolist() == [1] * 10
    assert out.syndrome_ok


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_zero_llrs_resolve_to_zero_bits(code10, schedule):
    out = decode_frame(code10, np.zeros(10), cfg(schedule, early_termination=True))
    assert out.bits.tolist() == [0] * 10
    assert out.syndrome_ok and out.iterations_run == 1


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_iterations_run_without_early_termination(code10, schedule):
    out = decode_frame(code10, np.full(10, 4.0),
                       cfg(schedule, max_iterations=7, early_termination=False))
    assert out.iterations_run == 7
    assert out.syndrome_ok


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_syndrome_ok_is_recomputable(code576, schedule):
    ch = AwgnChannel(1.0, 0.5, seed=3)
    config = cfg(schedule, max_iterations=5, early_termination=True)
    for i in range(8):
        sym = modulate_bpsk(np.zeros(code576.n, dtype=np.uint8))
        llr = llr_from_channel(ch, transmit(ch, sym, i))
        out = decode_frame(code576, llr, config)
        assert out.syndrome_ok == (not syndrome(code576, out.bits).any())
        assert 1 <= out.iterations_run <= 5


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_decode_deterministic(code576, schedule):
    ch = AwgnChannel(2.0, 0.5, seed=8)
    sym = modulate_bpsk(np.zeros(code576.n, dtype=np.uint8))
    llr = llr_from_channel(ch, transmit(ch, sym, 0))
    config = cfg(schedule, max_iterations=15, early_termination=True)
    first = decode_frame(code576, llr, config)
    decode_frame(code576, llr + 1.0, config)  # unrelated call in between
    again = decode_frame(code576, llr, config)
    assert np.array_equal(first.bits, again.bits)
    assert first.iterations_run == again.iterations_run


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_normalized_min_sum_corrects_single_error(code10, schedule):
    frame = np.full(10, 8.0)
    frame[4] = -8.0
    out = decode_frame(code10, frame, cfg(schedule, max_iterations=20,
                                          early_termination=True, normalization=0.75))
    assert out.bits.tolist() == [0] * 10


def test_decode_validates_input(code10):
    config = cfg("flooding")
    with pytest.raises(ValueError):
        decode_flooding(code10, np.zeros(9), config)
    with pytest.raises(ValueError):
        bad = np.zeros(10)
        bad[0] = np.nan
        decode_flooding(code10, bad, config)
    with pytest.raises(ValueError):
        decode_layered(code10, np.zeros(10), config)  # schedule mismatch


def test_config_validation():
    with pytest.raises(ValueError):
        DecoderConfig(schedule="serial")
    with pytest.raises(ValueError):
        DecoderConfig(schedule="flooding", max_iterations=0)
    with pytest.raises(ValueError):
        DecoderConfig(schedule="flooding", normalization=0.0)
    with pytest.raises(ValueError):
        DecoderConfig(schedule="flooding", normalization=1.5)
    with pytest.raises(ValueError):
        DecoderConfig(schedule="flooding", llr_clamp=0.0)
    with pytest.raises(ValueError):  # a degree-1 check would send inf
        DecoderConfig(schedule="layered", llr_clamp=float("inf"))


# --- schedule-specific invariants -------------------------------------------

def test_flooding_first_iteration_from_channel_only(code10):
    # iteration 1 check messages are a pure function of the channel LLRs,
    # so the posterior must equal channel + sum of public check_node_update
    # outputs over each row (strict phase separation)
    rng = np.random.default_rng(44)
    llr = rng.normal(0, 3, 10)
    bits, iters, ok, post = np_flood(code10, llr.reshape(10, 1).copy(),
                                     1, False, 1.0, 64.0)
    msgs = {}
    for j, row in enumerate(code10.row_adj):
        out = check_node_update(llr[list(row)])
        for t, i in enumerate(row):
            msgs[(j, i)] = out[t]
    for i in range(10):
        total = llr[i]
        for j in code10.col_adj[i]:
            total += msgs[(j, i)]
        assert post[i, 0] == pytest.approx(np.clip(total, -64, 64), abs=1e-12)


def test_layered_posterior_consistency_per_row(code10, code40):
    # after every level step: posterior = channel + sum of incident stored
    # messages, to float tolerance; each level of code10 is a single row
    rng = np.random.default_rng(45)
    for code in (code10, code40):
        llr = rng.normal(0, 3, (code.n, 2))
        post = np.clip(llr, -64, 64)
        msg = np.zeros((code.edge_count, 2))
        for sweep in range(3):
            for rows in code.levels:
                _layered_level(code, rows, post, msg, 1.0, 64.0)
                for i in range(code.n):
                    lo, hi = code.col_ptr[i], code.col_ptr[i + 1]
                    want = llr[i] + msg[code.col_edge[lo:hi]].sum(axis=0)
                    assert post[i] == pytest.approx(want, abs=1e-9)
                assert np.abs(msg).max() <= 64.0


def test_layered_updates_are_immediate(code40):
    # the first level must change the posterior of exactly its rows'
    # variables before any later level is touched
    llr = np.full((code40.n, 1), 2.0)
    post = llr.copy()
    msg = np.zeros((code40.edge_count, 1))
    first = code40.levels[0]
    _layered_level(code40, first, post, msg, 1.0, 64.0)
    touched = sorted({i for j in first for i in code40.row_adj[j]})
    rest = [i for i in range(code40.n) if i not in touched]
    assert len(first) > 1 and rest
    assert (post[touched, 0] != 2.0).all()
    assert (post[rest, 0] == 2.0).all()


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_clamp_bounds_posterior(code10, schedule):
    from streamdec.backend import get_kernels
    k = get_kernels("numpy")
    fn = k.decode_flooding if schedule == "flooding" else k.decode_layered
    llr = np.full((10, 1), 50.0)
    bits, iters, ok, post = fn(code10, llr, 10, False, 1.0, 8.0)
    assert np.abs(post).max() <= 8.0
    assert bits[:, 0].tolist() == [0] * 10


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_degree_one_check_pins_its_variable(schedule):
    # a single-variable check forces that bit toward 0 with full certainty
    h = [[1, 0, 0], [1, 1, 1]]
    code = from_dense(h)
    frame = np.array([-3.0, 5.0, 4.0])
    out = decode_frame(code, frame, cfg(schedule, max_iterations=10,
                                        early_termination=True, llr_clamp=16.0))
    assert out.bits[0] == 0
    assert out.syndrome_ok


def test_layered_converges_no_slower_on_average(code576):
    # shared noise realizations, mean iterations-to-convergence
    ch = AwgnChannel(2.5, 0.5, seed=77)
    fl = cfg("flooding", max_iterations=40, early_termination=True)
    la = cfg("layered", max_iterations=40, early_termination=True)
    fl_iters, la_iters = [], []
    for i in range(60):
        sym = modulate_bpsk(np.zeros(code576.n, dtype=np.uint8))
        llr = llr_from_channel(ch, transmit(ch, sym, i))
        fl_iters.append(decode_frame(code576, llr, fl).iterations_run)
        la_iters.append(decode_frame(code576, llr, la).iterations_run)
    assert np.mean(la_iters) <= np.mean(fl_iters)
