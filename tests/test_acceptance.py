"""Acceptance gate: ten checks covering decode correctness, batching,
stream behavior, scaling, and formats.

Each test prints one PASS/FAIL line with its elapsed time.  Runtime
budgets are reported, not asserted; see the line printed per check.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from streamdec import (
    AwgnChannel,
    DecodeJob,
    DecoderConfig,
    StreamConfig,
    check_node_update,
    decode_batch,
    decode_frame,
    deinterleave,
    engine_start,
    from_dense,
    interleave,
    llr_from_channel,
    modulate_bpsk,
    parse_alist,
    emit_alist,
    random_regular_code,
    systematic_form,
    transmit,
)
from streamdec.bench import median_throughput, run_compare_schedules, run_throughput

from oracles import H_EXAMPLE, enumerate_codewords, ml_decode, naive_check_node_update

CODE10 = from_dense(H_EXAMPLE)


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # jit compilation must not pollute per-check timings
    for schedule in ("flooding", "layered"):
        decode_frame(CODE10, np.full(CODE10.n, 4.0), DecoderConfig(schedule=schedule))


@contextmanager
def check(num, budget, label):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num:02d} FAIL "
              f"({time.perf_counter() - t0:.2f}s, budget {budget}) {label}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS "
          f"({time.perf_counter() - t0:.2f}s, budget {budget}) {label}")


def noisy_frames(code, count, ebno, seed, rate=0.5):
    ch = AwgnChannel(ebno, rate, seed=seed)
    sym = modulate_bpsk(np.zeros(code.n, dtype=np.uint8))
    return np.stack([llr_from_channel(ch, transmit(ch, sym, frame_index=i))
                     for i in range(count)])


def test_c01_ml_oracle_equivalence():
    with check(1, "<1s", "both schedules match exhaustive ML on the (10,5) fixture"):
        cws = enumerate_codewords(H_EXAMPLE)
        assert len(cws) == 64  # 2**(n - rank), rank(H) = 4
        for schedule in ("flooding", "layered"):
            cfg = DecoderConfig(schedule=schedule, max_iterations=50,
                                early_termination=True)
            for i in range(10):
                llr = np.full(10, 8.0)
                llr[i] = -8.0
                got = decode_frame(CODE10, llr, cfg).bits
                assert np.array_equal(got, ml_decode(llr, cws)), \
                    f"{schedule}, flip at {i}"


def test_c02_check_node_oracle():
    with check(2, "<5s", "check_node_update equals naive leave-one-out on 1e4 inputs"):
        rng = np.random.default_rng(2024)
        for trial in range(10_000):
            d = int(rng.integers(2, 21))
            vals = rng.normal(0.0, 4.0, size=d)
            if trial % 5 == 0:
                vals[rng.integers(d)] = 0.0  # exercise the sign(0) = +1 rule
            if trial % 7 == 0 and d >= 3:
                vals[1] = vals[0]  # duplicate magnitudes hit the min2 path
            norm = (1.0, 0.75)[trial % 2]
            got = check_node_update(vals, normalization=norm)
            want = naive_check_node_update(vals, normalization=norm)
            assert np.array_equal(got, want)


def test_c03_batch_scalar_bit_exactness():
    with check(3, "<30s", "decode_batch bit-identical to per-frame decode, F in {1,2,4,8,32}"):
        code = random_regular_code(576, 288, 6, seed=0)
        frames = noisy_frames(code, 200, 2.5, seed=42)
        for schedule in ("flooding", "layered"):
            cfg = DecoderConfig(schedule=schedule, max_iterations=15,
                                early_termination=True)
            scalar = [decode_frame(code, frames[i], cfg) for i in range(200)]
            for f in (1, 2, 4, 8, 32):
                idx = 0
                for start in range(0, 200, f):
                    chunk = frames[start:start + f]
                    out = decode_batch(code, interleave(chunk), cfg)
                    for o in out:
                        s = scalar[idx]
                        assert np.array_equal(o.bits, s.bits)
                        assert o.iterations_run == s.iterations_run
                        assert o.syndrome_ok == s.syndrome_ok
                        idx += 1
                assert idx == 200


def test_c04_interleave_round_trip():
    with check(4, "<5s", "deinterleave(interleave(x)) is the identity, 1000 cases"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            f = int(rng.integers(1, 65))
            n = int(rng.integers(1, 129))
            x = rng.normal(size=(f, n))
            batch = interleave(x)
            assert batch.shape == (n, f)
            assert np.array_equal(deinterleave(batch), x)


def test_c05_stream_determinism():
    with check(5, "<60s", "1000 jobs give identical id->bits maps for w in {1,2,3,4}"):
        code = random_regular_code(96, 48, 6, seed=3)
        cfg = DecoderConfig(schedule="layered", max_iterations=10,
                            early_termination=True)
        payloads = noisy_frames(code, 2000, 2.0, seed=5).reshape(1000, 2, 96)
        maps = {}
        for w in (1, 2, 3, 4):
            eng = engine_start(code, cfg, StreamConfig(w=w, f=2, queue_depth=4))
            for i in range(1000):
                assert eng.submit(DecodeJob(job_id=i, frames=payloads[i])).accepted
            summary = eng.shutdown(drain=True)
            assert summary.completed == 1000
            maps[w] = {jid: tuple(o.bits.tobytes() for o in outcome)
                       for jid, outcome in eng.collect()}
            assert len(maps[w]) == 1000
        for w in (2, 3, 4):
            assert maps[w] == maps[1]


def test_c06_conservation_at_shutdown():
    with check(6, "<30s", "accepted = completed + cancelled + failed over 100 "
                          "randomized trials, a third with injected failures"):
        rng = np.random.default_rng(99)
        fail_rng = np.random.default_rng(98)  # keeps rng's trial draws as they were
        payloads = noisy_frames(CODE10, 80, 3.0, seed=1).reshape(40, 2, 10)
        cfg = DecoderConfig(schedule="layered", max_iterations=10,
                            early_termination=True)
        for trial in range(100):
            w = int(rng.integers(1, 5))
            depth = int(rng.integers(1, 4))
            policy = ("block", "reject")[int(rng.integers(2))]
            bad = set()
            if fail_rng.integers(3) == 0:
                bad = set(fail_rng.choice(40, size=int(fail_rng.integers(1, 6)),
                                          replace=False).tolist())

            def hook(jid, bad=bad):
                if jid in bad:
                    raise RuntimeError(f"injected failure on job {jid}")

            eng = engine_start(CODE10, cfg,
                               StreamConfig(w=w, f=2, queue_depth=depth,
                                            backpressure=policy),
                               job_hook=hook)
            target = int(rng.integers(0, 40))
            accepted_ids = []
            for i in range(target):
                if eng.submit(DecodeJob(job_id=i, frames=payloads[i])).accepted:
                    accepted_ids.append(i)
            if rng.integers(2):
                time.sleep(float(rng.uniform(0, 0.005)))
            drain = bool(rng.integers(2))
            try:
                summary = eng.shutdown(drain=drain)
                raised = False
            except RuntimeError as exc:
                assert "injected failure" in str(exc)
                raised = True
                summary = eng.shutdown(drain=drain)
            assert raised == (summary.failed > 0)
            assert summary.failed == len(summary.failed_job_ids)
            assert set(summary.failed_job_ids) <= bad
            if drain:
                assert set(summary.failed_job_ids) == bad & set(accepted_ids)
            assert summary.accepted == len(accepted_ids)
            assert summary.accepted == (summary.completed + summary.cancelled
                                        + summary.failed)
            collected = [jid for jid, _ in eng.collect()]
            assert len(collected) == len(set(collected)) == summary.completed
            assert sorted(collected + list(summary.cancelled_job_ids)
                          + list(summary.failed_job_ids)) == accepted_ids
            assert eng.resident_jobs() == 0


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="throughput scaling needs a host with >= 4 cores; "
                           f"this host reports {os.cpu_count()}")
def test_c07_throughput_scaling():
    with check(7, "<2min", "w=3 >= 1.2x w=1 and w=2 >= 0.9x w=1, median of 5"):
        code = random_regular_code(4000, 2000, 6, seed=0)
        cfg = DecoderConfig(schedule="layered", max_iterations=10,
                            early_termination=False)
        med = {}
        for w in (1, 2, 3):
            runs = run_throughput(code, cfg, w=w, f=32, frames=192,
                                  repeats=5, seed=0)
            med[w] = median_throughput(runs)
        assert med[3] >= 1.2 * med[1], f"w3/w1 = {med[3] / med[1]:.2f}"
        assert med[2] >= 0.9 * med[1], f"w2/w1 = {med[2] / med[1]:.2f}"


def test_c08_layered_converges_no_slower():
    with check(8, "<1min", "mean iterations(layered) <= mean(flooding), shared noise"):
        code = random_regular_code(1024, 512, 6, seed=1)
        r = run_compare_schedules(code, ebno_list=[2.0], frames=500,
                                  max_iterations=50, seed=0)[0]
        assert r.mean_iters_layered <= r.mean_iters_flooding, \
            f"layered {r.mean_iters_layered:.2f} > flooding {r.mean_iters_flooding:.2f}"
        # guard against a degenerate operating point
        assert 0 < r.converged_flooding <= 500


def test_c09_ber_tracks_ml():
    with check(9, "<1min", "decoder BER <= 2x exhaustive-ML BER at 12 dB, 1e4 frames"):
        gen = systematic_form(CODE10)
        k = gen.k
        assert k == 6  # n - rank(H) = 10 - 4
        rate = k / CODE10.n
        seed = 0
        ch = AwgnChannel(12.0, rate, seed=seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E)))
        frames = 10_000
        msgs = rng.integers(0, 2, size=(frames, k), dtype=np.uint8)
        cw_list = sorted(map(tuple, enumerate_codewords(H_EXAMPLE)))
        C = np.array(cw_list, dtype=np.uint8)
        S = 1.0 - 2.0 * C
        cfg = DecoderConfig(schedule="layered", max_iterations=50,
                            early_termination=True)
        dec_err = ml_err = 0
        f = 64
        for start in range(0, frames, f):
            cnt = min(f, frames - start)
            block = np.empty((cnt, CODE10.n))
            for j in range(cnt):
                cw = gen.encode(msgs[start + j])
                y = transmit(ch, modulate_bpsk(cw), frame_index=start + j)
                block[j] = llr_from_channel(ch, y)
            out = decode_batch(CODE10, interleave(block), cfg)
            ml_idx = np.argmax(block @ S.T, axis=1)
            for j in range(cnt):
                truth = msgs[start + j]
                dec_err += int(np.count_nonzero(
                    out[j].bits[gen.message_columns] != truth))
                ml_err += int(np.count_nonzero(
                    C[ml_idx[j]][gen.message_columns] != truth))
        dec_ber = dec_err / (frames * k)
        ml_ber = ml_err / (frames * k)
        assert dec_ber <= 2 * ml_ber, f"decoder {dec_ber:.3e} > 2x ML {ml_ber:.3e}"
        assert dec_ber < 1e-3


def test_c10_alist_round_trip():
    with check(10, "<5s", "parse_alist(emit_alist(code)) identity, fixture + 50 codes"):
        assert parse_alist(emit_alist(CODE10)) == CODE10
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(12, 61))
            m = max(2, n // 2)
            rowdeg = int(rng.integers(3, 7))
            code = random_regular_code(n, m, rowdeg, seed=int(rng.integers(1 << 30)))
            assert parse_alist(emit_alist(code)) == code
