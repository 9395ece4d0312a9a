"""Stream engine: dispatch, backpressure, ordering, grouping, shutdown accounting."""

import gc
import itertools
import multiprocessing
import os
import resource
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import streamdec.engine as engine_mod
from streamdec import (
    AwgnChannel,
    backend,
    DecoderConfig,
    decode_batch,
    from_dense,
    interleave,
    llr_from_channel,
    modulate_bpsk,
    random_regular_code,
    transmit,
)
from streamdec.engine import (
    DecodeJob,
    Engine,
    ShutdownSummary,
    StreamConfig,
    engine_start,
)

from oracles import H_EXAMPLE

CODE = from_dense(H_EXAMPLE)
DCFG = DecoderConfig(schedule="layered", max_iterations=8, early_termination=True)


def job_frames(count, f, seed=0, ebno=3.0):
    ch = AwgnChannel(ebno, 0.5, seed=seed)
    sym = modulate_bpsk(np.zeros(CODE.n, dtype=np.uint8))
    out = []
    for j in range(count):
        out.append(np.array([
            llr_from_channel(ch, transmit(ch, sym, j * f + s)) for s in range(f)
        ]))
    return out


def test_config_validation():
    with pytest.raises(ValueError):
        StreamConfig(w=0)
    with pytest.raises(ValueError):
        StreamConfig(queue_depth=0)
    with pytest.raises(ValueError):
        StreamConfig(backpressure="drop")
    # a float count fails here, not later in engine_start or a worker
    for name in ("w", "f", "queue_depth"):
        for value in (2.0, 2.5):
            with pytest.raises(ValueError, match=f"^{name} must"):
                StreamConfig(**{name: value})
    assert StreamConfig(w=np.int64(2), f=np.int32(4)).f == 4


def test_single_stream_results_in_submission_order():
    eng = engine_start(CODE, DCFG, StreamConfig(w=1, f=2, queue_depth=16))
    frames = job_frames(10, 2)
    for i, fr in enumerate(frames):
        status = eng.submit(DecodeJob(job_id=i, frames=fr))
        assert status.accepted and status.stream == 0
    summary = eng.shutdown(drain=True)
    got = list(eng.collect())
    assert [jid for jid, _ in got] == list(range(10))
    assert summary == ShutdownSummary(10, 10, 0, ())


def test_outcomes_match_standalone_decode():
    eng = engine_start(CODE, DCFG, StreamConfig(w=3, f=4, queue_depth=4))
    frames = job_frames(12, 4, seed=7)
    for i, fr in enumerate(frames):
        assert eng.submit(DecodeJob(job_id=i, frames=fr)).accepted
    eng.shutdown(drain=True)
    results = dict(eng.collect())
    assert sorted(results) == list(range(12))
    for i, fr in enumerate(frames):
        want = decode_batch(CODE, interleave(fr), DCFG)
        for a, b in zip(results[i], want):
            assert np.array_equal(a.bits, b.bits)
            assert a.iterations_run == b.iterations_run
            assert a.syndrome_ok == b.syndrome_ok


def test_per_stream_fifo_order():
    eng = engine_start(CODE, DCFG, StreamConfig(w=3, f=2, queue_depth=8))
    placed = {}
    for i, fr in enumerate(job_frames(30, 2, seed=3)):
        status = eng.submit(DecodeJob(job_id=i, frames=fr))
        assert status.accepted
        placed.setdefault(status.stream, []).append(i)
    eng.shutdown(drain=True)
    collected = [jid for jid, _ in eng.collect()]
    assert sorted(collected) == list(range(30))
    for stream_jobs in placed.values():
        order = [jid for jid in collected if jid in set(stream_jobs)]
        assert order == stream_jobs


def test_round_robin_on_equal_load():
    gate = threading.Event()
    eng = engine_start(CODE, DCFG, StreamConfig(w=3, f=2, queue_depth=4),
                       job_hook=lambda jid: gate.wait())
    frames = job_frames(3, 2)
    streams = [eng.submit(DecodeJob(job_id=i, frames=frames[i])).stream
               for i in range(3)]
    assert streams == [0, 1, 2]
    gate.set()
    eng.shutdown(drain=True)
    assert len(list(eng.collect())) == 3


def test_least_loaded_dispatch_prefers_idle_stream():
    gate = threading.Event()
    eng = engine_start(CODE, DCFG, StreamConfig(w=2, f=2, queue_depth=4),
                       job_hook=lambda jid: gate.wait())
    frames = job_frames(4, 2)
    assert eng.submit(DecodeJob(job_id=0, frames=frames[0])).stream == 0
    assert eng.submit(DecodeJob(job_id=1, frames=frames[1])).stream == 1
    # stream 0 and 1 both busy with one in-flight job; next two keep balance
    assert eng.submit(DecodeJob(job_id=2, frames=frames[2])).stream == 0
    assert eng.submit(DecodeJob(job_id=3, frames=frames[3])).stream == 1
    gate.set()
    eng.shutdown(drain=True)
    assert len(list(eng.collect())) == 4


def test_submit_validation_rejects():
    eng = engine_start(CODE, DCFG, StreamConfig(w=1, f=2, queue_depth=4))
    ok = job_frames(1, 2)[0]
    bad_shape = eng.submit(DecodeJob(job_id=0, frames=np.zeros((3, CODE.n))))
    assert not bad_shape.accepted and "shape" in bad_shape.reason
    nan = ok.copy()
    nan[0, 0] = np.nan
    bad_vals = eng.submit(DecodeJob(job_id=1, frames=nan))
    assert not bad_vals.accepted and "non-finite" in bad_vals.reason
    for jid, frames in enumerate((ok.astype(complex), "frames",
                                  [[0.0] * CODE.n, [0.0]]), start=10):
        status = eng.submit(DecodeJob(job_id=jid, frames=frames))
        assert not status.accepted and "real numbers" in status.reason
    assert eng.submit(DecodeJob(job_id=2, frames=ok)).accepted
    dup = eng.submit(DecodeJob(job_id=2, frames=ok))
    assert not dup.accepted and "duplicate" in dup.reason
    eng.shutdown(drain=True)
    assert len(list(eng.collect())) == 1


def stall_hook(gate):
    """Hook that records which jobs workers picked up, then stalls them."""
    started = set()

    def hook(jid):
        started.add(jid)
        gate.wait()

    return hook, started


def wait_for(predicate, timeout=2.0):
    deadline = time.time() + timeout
    while not predicate() and time.time() < deadline:
        time.sleep(0.005)
    assert predicate()


def test_reject_backpressure_and_bounded_residency():
    first, second = threading.Event(), threading.Event()
    gates = {0: first, 1: first, 2: second, 3: second}
    started = set()

    def hook(jid):
        started.add(jid)
        if jid in gates:
            gates[jid].wait()

    cfg = StreamConfig(w=2, f=2, queue_depth=2, backpressure="reject")
    eng = engine_start(CODE, DCFG, cfg, job_hook=hook)
    frames = job_frames(9, 2)
    for i in range(2):
        assert eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted
    wait_for(lambda: started == {0, 1})  # both workers hold a job in flight
    for i in range(2, 6):
        assert eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted
    full = eng.submit(DecodeJob(job_id=6, frames=frames[6]))
    assert not full.accepted and full.reason == "queues full"
    # exactly w*queue_depth + w jobs resident while workers are stalled
    assert eng.resident_jobs() == 6 == cfg.w * cfg.queue_depth + cfg.w
    first.set()
    # each worker now holds a two-job group, [2, 4] and [3, 5], in flight:
    # a stream takes one more job, and residency stays at the bound
    wait_for(lambda: started >= {2, 3})
    assert eng.resident_jobs() == 4
    for i in (6, 7):
        assert eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted
    full = eng.submit(DecodeJob(job_id=8, frames=frames[8]))
    assert not full.accepted and full.reason == "queues full"
    assert eng.resident_jobs() == 6 == cfg.w * cfg.queue_depth + cfg.w
    second.set()
    summary = eng.shutdown(drain=True)
    assert summary.accepted == 8 and summary.completed == 8 and summary.cancelled == 0
    assert len(list(eng.collect())) == 8


def test_stream_decoding_a_full_group_takes_one_more_job(monkeypatch):
    # f=32 and queue_depth 4: the in-flight group holds 128 lanes
    widths = []
    real = engine_mod._decode_lanes

    def spy(code, lanes, *args):
        widths.append(lanes.shape[1])
        return real(code, lanes, *args)

    monkeypatch.setattr(engine_mod, "_decode_lanes", spy)
    gates = {0: threading.Event(), 1: threading.Event()}
    started = set()

    def hook(jid):
        started.add(jid)
        if jid in gates:
            gates[jid].wait()

    cfg = StreamConfig(w=1, f=32, queue_depth=4, backpressure="reject")
    eng = engine_start(CODE, DCFG, cfg, job_hook=hook)
    frames = job_frames(7, 32)
    assert eng.submit(DecodeJob(job_id=0, frames=frames[0])).accepted
    wait_for(lambda: started == {0})
    for i in range(1, 5):
        assert eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted
    full = eng.submit(DecodeJob(job_id=5, frames=frames[5]))
    assert not full.accepted and full.reason == "queues full"
    gates[0].set()
    # jobs 1-4, queue_depth of them, are one group in flight
    wait_for(lambda: 1 in started)
    assert eng.resident_jobs() == cfg.queue_depth
    assert eng.submit(DecodeJob(job_id=5, frames=frames[5])).accepted
    full = eng.submit(DecodeJob(job_id=6, frames=frames[6]))
    assert not full.accepted and full.reason == "queues full"
    assert eng.resident_jobs() == cfg.queue_depth + 1
    gates[1].set()
    assert eng.shutdown(drain=True) == ShutdownSummary(6, 6, 0, ())
    assert widths == [32, 128, 32]
    got = list(eng.collect())
    assert [jid for jid, _ in got] == list(range(6))
    for jid, outcome in got:
        assert_standalone(outcome, frames[jid])


def test_block_backpressure_blocks_then_proceeds():
    gate = threading.Event()
    cfg = StreamConfig(w=1, f=2, queue_depth=1, backpressure="block")
    eng = engine_start(CODE, DCFG, cfg, job_hook=lambda jid: gate.wait())
    frames = job_frames(3, 2)
    assert eng.submit(DecodeJob(job_id=0, frames=frames[0])).accepted  # in flight
    assert eng.submit(DecodeJob(job_id=1, frames=frames[1])).accepted  # queued
    blocked_result = {}

    def blocked_submit():
        blocked_result["status"] = eng.submit(DecodeJob(job_id=2, frames=frames[2]))

    t = threading.Thread(target=blocked_submit)
    t.start()
    t.join(timeout=0.3)
    assert t.is_alive(), "third submit should block while queues are full"
    gate.set()
    t.join(timeout=5.0)
    assert not t.is_alive() and blocked_result["status"].accepted
    summary = eng.shutdown(drain=True)
    assert summary.accepted == 3 and summary.completed == 3
    assert len(list(eng.collect())) == 3


def test_cancel_shutdown_reports_queued_jobs():
    gate = threading.Event()
    hook, started = stall_hook(gate)
    cfg = StreamConfig(w=2, f=2, queue_depth=2)
    eng = engine_start(CODE, DCFG, cfg, job_hook=hook)
    frames = job_frames(6, 2)
    for i in range(2):
        assert eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted
    wait_for(lambda: started == {0, 1})  # workers hold 0 and 1 in flight
    for i in range(2, 6):
        assert eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted
    releaser = threading.Timer(0.3, gate.set)
    releaser.start()
    summary = eng.shutdown(drain=False)  # pops queues before workers wake
    releaser.join()
    assert summary.accepted == 6
    assert summary.completed + summary.cancelled == 6
    assert summary.cancelled == 4  # one job per worker was already in flight
    assert sorted(summary.cancelled_job_ids) == [2, 3, 4, 5]
    collected = {jid for jid, _ in eng.collect()}
    assert collected == {0, 1}


def failing_hook(bad_ids):
    """Hook that raises inside the worker on the jobs in ``bad_ids``."""

    def hook(jid):
        if jid in bad_ids:
            raise ValueError(f"injected failure on {jid}")

    return hook


def collect_in_thread(eng):
    """Start draining eng.collect() in a daemon thread; returns (thread, sink)."""
    sink = []
    t = threading.Thread(target=lambda: sink.extend(eng.collect()), daemon=True)
    t.start()
    return t, sink


def test_failed_job_counted_and_collect_returns():
    eng = engine_start(CODE, DCFG, StreamConfig(w=2, f=2, queue_depth=2),
                       job_hook=failing_hook({2}))
    collector, got = collect_in_thread(eng)
    frames = job_frames(4, 2, seed=9)
    for i, fr in enumerate(frames):
        assert eng.submit(DecodeJob(job_id=i, frames=fr)).accepted
    with pytest.raises(RuntimeError, match="worker failed on job 2") as err:
        eng.shutdown(drain=True)
    assert isinstance(err.value.__cause__, ValueError)
    collector.join(timeout=1.0)
    assert not collector.is_alive(), "collect() must return after a failed shutdown"
    assert sorted(jid for jid, _ in got) == [0, 1, 3]
    for jid, outcome in got:
        want = decode_batch(CODE, interleave(frames[jid]), DCFG)
        assert np.array_equal(outcome.bits, want.bits)
    assert eng.resident_jobs() == 0
    summary = eng.shutdown(drain=True)
    assert summary == ShutdownSummary(4, 3, 0, (), failed=1, failed_job_ids=(2,))
    assert eng.shutdown() is summary


def test_failed_jobs_with_cancel_shutdown():
    gate = threading.Event()
    hook, started = stall_hook(gate)
    fail = failing_hook({0, 1})

    def stall_then_fail(jid):
        hook(jid)
        fail(jid)

    eng = engine_start(CODE, DCFG, StreamConfig(w=2, f=2, queue_depth=2),
                       job_hook=stall_then_fail)
    frames = job_frames(5, 2)
    for i in range(2):
        assert eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted
    wait_for(lambda: started == {0, 1})  # both doomed jobs are in flight
    for i in range(2, 5):
        assert eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted
    releaser = threading.Timer(0.3, gate.set)
    releaser.start()
    with pytest.raises(RuntimeError, match="worker failed on job [01]"):
        eng.shutdown(drain=False)
    releaser.join()
    collector, got = collect_in_thread(eng)
    collector.join(timeout=1.0)
    assert not collector.is_alive() and got == []
    summary = eng.shutdown()
    assert (summary.accepted, summary.completed, summary.cancelled) == (5, 0, 3)
    assert sorted(summary.cancelled_job_ids) == [2, 3, 4]
    assert summary.failed == 2 and sorted(summary.failed_job_ids) == [0, 1]
    assert eng.resident_jobs() == 0


def stalled_group(monkeypatch, f, bad_ids=(), fail_above=None):
    """One stream: job 0 stalls in its hook while jobs 1-3 queue behind it.

    Job 0 is released before this returns.  Hooks raise on ``bad_ids`` and
    decodes of more than ``fail_above`` lanes raise.  Returns the engine,
    the jobs' frames and the lane count of every decode the engine made.
    """
    widths = []
    real = engine_mod._decode_lanes

    def spy(code, lanes, *args):
        widths.append(lanes.shape[1])
        if fail_above is not None and lanes.shape[1] > fail_above:
            raise ValueError(f"injected failure on {lanes.shape[1]} lanes")
        return real(code, lanes, *args)

    monkeypatch.setattr(engine_mod, "_decode_lanes", spy)
    gate = threading.Event()
    stall, started = stall_hook(gate)
    fail = failing_hook(set(bad_ids))

    def hook(jid):
        stall(jid)
        fail(jid)

    eng = engine_start(CODE, DCFG, StreamConfig(w=1, f=f, queue_depth=3),
                       job_hook=hook)
    frames = job_frames(4, f, seed=11, ebno=1.0)
    assert eng.submit(DecodeJob(job_id=0, frames=frames[0])).accepted
    wait_for(lambda: started == {0})
    for i in range(1, 4):
        assert eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted
    gate.set()
    return eng, frames, widths


def assert_standalone(outcome, frames, code=CODE, cfg=DCFG):
    want = decode_batch(code, interleave(frames), cfg)
    assert np.array_equal(outcome.bits, want.bits)
    assert np.array_equal(outcome.iterations, want.iterations)
    assert np.array_equal(outcome.syndrome_ok, want.syndrome_ok)


def test_worker_decodes_its_whole_queue_as_one_group(monkeypatch):
    eng, frames, widths = stalled_group(monkeypatch, f=32)
    assert eng.shutdown(drain=True) == ShutdownSummary(4, 4, 0, ())
    # job 0 alone, then jobs 1-3 as one 96-lane group
    assert widths == [32, 96]
    got = list(eng.collect())
    assert [jid for jid, _ in got] == [0, 1, 2, 3]
    for jid, outcome in got:
        assert_standalone(outcome, frames[jid])


def test_hook_failure_fails_only_its_job_in_a_group(monkeypatch):
    eng, frames, widths = stalled_group(monkeypatch, f=16, bad_ids={2})
    with pytest.raises(RuntimeError, match="worker failed on job 2"):
        eng.shutdown(drain=True)
    assert widths == [16, 32]  # jobs 1 and 3 decoded together without job 2
    got = list(eng.collect())
    assert [jid for jid, _ in got] == [0, 1, 3]
    for jid, outcome in got:
        assert_standalone(outcome, frames[jid])
    assert eng.shutdown() == ShutdownSummary(4, 3, 0, (), failed=1, failed_job_ids=(2,))


def test_decode_failure_fails_the_whole_group(monkeypatch):
    eng, frames, widths = stalled_group(monkeypatch, f=32, fail_above=32)
    with pytest.raises(RuntimeError, match="worker failed on job 1"):
        eng.shutdown(drain=True)
    assert widths == [32, 96]
    got = list(eng.collect())
    assert [jid for jid, _ in got] == [0]
    assert_standalone(got[0][1], frames[0])
    summary = eng.shutdown()
    assert summary == ShutdownSummary(4, 1, 0, (), failed=3, failed_job_ids=(1, 2, 3))
    assert summary.accepted == summary.completed + summary.cancelled + summary.failed
    assert eng.resident_jobs() == 0


def test_idle_worker_keeps_no_decode_arrays(monkeypatch):
    posteriors = []
    real = engine_mod._decode_lanes

    def spy(*args):
        result = real(*args)
        posteriors.append(weakref.ref(result[3]))
        return result

    monkeypatch.setattr(engine_mod, "_decode_lanes", spy)
    eng = engine_start(CODE, DCFG, StreamConfig(w=1, f=4, queue_depth=2))
    assert eng.submit(DecodeJob(job_id=0, frames=job_frames(1, 4)[0])).accepted
    assert next(eng.collect())[0] == 0
    # the worker is back asleep waiting for a job once the posterior is gone
    wait_for(lambda: gc.collect() >= 0 and posteriors[0]() is None)
    assert eng.shutdown(drain=True) == ShutdownSummary(1, 1, 0, ())


def test_blocked_submit_returns_when_shutdown_starts():
    gate = threading.Event()
    hook, started = stall_hook(gate)
    cfg = StreamConfig(w=1, f=2, queue_depth=1, backpressure="block")
    eng = engine_start(CODE, DCFG, cfg, job_hook=hook)
    frames = job_frames(3, 2)
    assert eng.submit(DecodeJob(job_id=0, frames=frames[0])).accepted
    wait_for(lambda: started == {0})
    assert eng.submit(DecodeJob(job_id=1, frames=frames[1])).accepted
    blocked = {}
    submitter = threading.Thread(target=lambda: blocked.setdefault(
        "status", eng.submit(DecodeJob(job_id=2, frames=frames[2]))), daemon=True)
    submitter.start()
    submitter.join(timeout=0.2)
    assert submitter.is_alive(), "submit should block while the queue is full"
    stopper = threading.Thread(target=lambda: blocked.setdefault(
        "summary", eng.shutdown(drain=True)), daemon=True)
    stopper.start()  # joins the stalled worker, so it cannot finish yet
    submitter.join(timeout=1.0)
    assert not submitter.is_alive(), "shutdown() must wake a blocked submit"
    assert blocked["status"].reason == "engine stopped"
    assert stopper.is_alive()
    gate.set()
    stopper.join(timeout=5.0)
    assert not stopper.is_alive()
    assert blocked["summary"] == ShutdownSummary(2, 2, 0, ())


def test_concurrent_second_shutdown_gets_first_summary():
    gate = threading.Event()
    hook, started = stall_hook(gate)
    eng = engine_start(CODE, DCFG, StreamConfig(w=1, f=2, queue_depth=1,
                                                backpressure="reject"),
                       job_hook=hook)
    frames = job_frames(2, 2)
    assert eng.submit(DecodeJob(job_id=0, frames=frames[0])).accepted
    wait_for(lambda: started == {0})
    assert eng.submit(DecodeJob(job_id=1, frames=frames[1])).accepted
    summaries = [None, None]

    def stop(k):
        summaries[k] = eng.shutdown(drain=True)

    first = threading.Thread(target=stop, args=(0,), daemon=True)
    first.start()
    # the queue is full, so submit reports "queues full" until the first call stops it
    wait_for(lambda: eng.submit(DecodeJob(job_id=9, frames=frames[0])).reason
             == "engine stopped")
    second = threading.Thread(target=stop, args=(1,), daemon=True)
    second.start()
    second.join(timeout=0.2)
    assert second.is_alive(), "the second call waits for the first call's summary"
    gate.set()
    for t in (first, second):
        t.join(timeout=5.0)
        assert not t.is_alive()
    assert summaries[0] == ShutdownSummary(2, 2, 0, ())
    assert summaries[1] is summaries[0]


def test_job_id_refused_until_collected_then_reusable():
    eng = engine_start(CODE, DCFG, StreamConfig(w=1, f=2, queue_depth=2))
    frames = job_frames(2, 2)
    assert eng.submit(DecodeJob(job_id=7, frames=frames[0])).accepted
    wait_for(lambda: eng.resident_jobs() == 0)  # decoded, result not yet collected
    dup = eng.submit(DecodeJob(job_id=7, frames=frames[1]))
    assert not dup.accepted and dup.reason == "duplicate job_id 7"
    results = eng.collect()
    jid, first = next(results)
    assert jid == 7
    assert eng.submit(DecodeJob(job_id=7, frames=frames[1])).accepted
    summary = eng.shutdown(drain=True)
    assert summary == ShutdownSummary(2, 2, 0, ())
    (jid, second), = list(results)
    assert jid == 7
    want = decode_batch(CODE, interleave(frames[1]), DCFG)
    assert np.array_equal(second.bits, want.bits)


def test_concurrent_submitters_and_collectors_stress():
    # more streams and threads than cores, and a short switch interval, so a
    # lost wake-up or a lost update shows as a hung thread or a missing id;
    # at queue_depth 4 the workers also take multi-job groups
    for queue_depth in (1, 4):
        stress_engine(queue_depth)


def stress_engine(queue_depth):
    frames = job_frames(4, 2)
    cfg = DecoderConfig(schedule="flooding", max_iterations=2)
    accepted = [[] for _ in range(3)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        eng = engine_start(CODE, cfg, StreamConfig(w=4, f=2, queue_depth=queue_depth))

        def submitter(k):
            for i in range(k, 300, 3):
                if eng.submit(DecodeJob(job_id=i, frames=frames[i % 4])).accepted:
                    accepted[k].append(i)

        collectors = [collect_in_thread(eng) for _ in range(3)]
        submitters = [threading.Thread(target=submitter, args=(k,), daemon=True)
                      for k in range(3)]
        for t in submitters:
            t.start()
        for t in submitters:
            t.join(timeout=60.0)
            assert not t.is_alive(), "a submitter hung"
        summary = eng.shutdown(drain=True)
        for t, _ in collectors:
            t.join(timeout=10.0)
            assert not t.is_alive(), "a collector hung"
    finally:
        sys.setswitchinterval(old)
    ids = sorted(i for part in accepted for i in part)
    assert ids == list(range(300))  # the block policy accepts every job
    assert sorted(jid for _, sink in collectors for jid, _ in sink) == ids
    assert summary == ShutdownSummary(300, 300, 0, ())
    assert eng.resident_jobs() == 0


def test_shutdown_idempotent_and_rejects_after():
    eng = engine_start(CODE, DCFG, StreamConfig(w=2, f=2, queue_depth=2))
    frames = job_frames(3, 2)
    for i in range(3):
        assert eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted
    first = eng.shutdown(drain=True)
    second = eng.shutdown(drain=True)
    third = eng.shutdown()
    assert first == second == third
    late = eng.submit(DecodeJob(job_id=99, frames=frames[0]))
    assert not late.accepted and late.reason == "engine stopped"


def test_collect_mid_run():
    eng = engine_start(CODE, DCFG, StreamConfig(w=2, f=2, queue_depth=4))
    frames = job_frames(5, 2)
    for i in range(5):
        assert eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted
    got = list(itertools.islice(eng.collect(), 5))
    assert sorted(jid for jid, _ in got) == list(range(5))
    summary = eng.shutdown(drain=True)
    assert summary.completed == 5
    assert list(eng.collect()) == []


def test_make_job_ids_monotone():
    eng = engine_start(CODE, DCFG, StreamConfig(w=1, f=2, queue_depth=2))
    frames = job_frames(1, 2)[0]
    jobs = [eng.make_job(frames) for _ in range(5)]
    assert [j.job_id for j in jobs] == [0, 1, 2, 3, 4]
    eng.shutdown(drain=True)


def test_phase_timers_accumulate_and_reset():
    eng = engine_start(CODE, DCFG, StreamConfig(w=1, f=4, queue_depth=4))
    for i, fr in enumerate(job_frames(4, 4)):
        assert eng.submit(DecodeJob(job_id=i, frames=fr)).accepted
    eng.shutdown(drain=True)
    list(eng.collect())
    totals = eng.phase_totals()
    assert totals["batches"] == 4
    assert totals["decode"] > 0.0
    assert totals["interleave"] >= 0.0 and totals["deinterleave"] >= 0.0
    eng.reset_timers()
    assert eng.phase_totals() == {"interleave": 0.0, "decode": 0.0,
                                  "deinterleave": 0.0, "batches": 0}


def test_conservation_randomized_trials():
    rng = np.random.default_rng(55)
    frames = job_frames(12, 2)
    for trial in range(12):
        w = int(rng.integers(1, 4))
        eng = engine_start(CODE, DCFG, StreamConfig(w=w, f=2, queue_depth=2,
                                                    backpressure="reject"))
        want = int(rng.integers(0, 12))
        submitted = []
        for i in range(want):
            if eng.submit(DecodeJob(job_id=i, frames=frames[i])).accepted:
                submitted.append(i)
        if rng.integers(2):
            time.sleep(float(rng.uniform(0, 0.01)))
        summary = eng.shutdown(drain=bool(rng.integers(2)))
        assert summary.accepted == len(submitted)
        assert summary.accepted == summary.completed + summary.cancelled
        collected = [jid for jid, _ in eng.collect()]
        assert len(collected) == summary.completed
        assert sorted(collected + list(summary.cancelled_job_ids)) == submitted


def test_cpu_usage_smoke_monotone():
    # busy CPU time over a fixed workload should not shrink when streams grow
    frames = job_frames(30, 4)

    def cpu_seconds():
        # streams after the first may decode in child processes, which
        # RUSAGE_CHILDREN counts once shutdown() has reaped them
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() + kids.ru_utime + kids.ru_stime

    def run(w):
        eng = engine_start(CODE, DecoderConfig(schedule="layered", max_iterations=30),
                           StreamConfig(w=w, f=4, queue_depth=4))
        t0 = cpu_seconds()
        for i, fr in enumerate(frames):
            assert eng.submit(DecodeJob(job_id=i, frames=fr)).accepted
        eng.shutdown(drain=True)
        list(eng.collect())
        return cpu_seconds() - t0

    run(1)  # warm caches
    one = run(1)
    three = run(3)
    assert three >= 0.5 * one


# -- child streams: on numpy with more than one usable CPU, every stream
# after stream 0 decodes in a forked child --------------------------------

NP_CODE = random_regular_code(96, 48, 6, seed=3)


def np_config(schedule="layered", early=True):
    return DecoderConfig(schedule=schedule, max_iterations=10,
                         early_termination=early, backend="numpy")


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def np_jobs(count, f, seed):
    """Jobs of 2 dB frames: some converge early, some never do."""
    ch = AwgnChannel(2.0, 0.5, seed=seed)
    sym = modulate_bpsk(np.zeros(NP_CODE.n, dtype=np.uint8))
    return [np.array([llr_from_channel(ch, transmit(ch, sym, j * f + s))
                      for s in range(f)]) for j in range(count)]


@pytest.mark.parametrize("schedule", ["flooding", "layered"])
@pytest.mark.parametrize("early", [True, False])
@pytest.mark.parametrize("w", [2, 3])
def test_child_streams_match_decode_batch(two_cpus, schedule, early, w):
    cfg = np_config(schedule, early)
    jobs = np_jobs(24, 4, seed=w)
    eng = engine_start(NP_CODE, cfg, StreamConfig(w=w, f=4, queue_depth=2))
    assert len(multiprocessing.active_children()) == w - 1
    streams = {eng.submit(DecodeJob(job_id=i, frames=fr)).stream
               for i, fr in enumerate(jobs)}
    assert streams == set(range(w))
    assert eng.shutdown(drain=True) == ShutdownSummary(24, 24, 0, ())
    got = dict(eng.collect())
    assert sorted(got) == list(range(24))
    for jid, outcome in got.items():
        assert_standalone(outcome, jobs[jid], NP_CODE, cfg)
    assert not multiprocessing.active_children()


def test_no_child_on_one_cpu_at_w1_or_on_numba(monkeypatch):
    def started(cfg, w):
        eng = engine_start(NP_CODE, cfg, StreamConfig(w=w, f=2))
        kids = multiprocessing.active_children()
        eng.shutdown()
        return kids

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert started(np_config(), 3) == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert started(np_config(), 1) == []
    monkeypatch.setattr(backend, "HAVE_NUMBA", True)  # no decode runs
    assert started(DecoderConfig(schedule="layered", backend="numba"), 3) == []
    assert len(started(np_config(), 3)) == 2


def bounded_shutdown(eng, timeout=10.0):
    """shutdown() in a thread; (summary or None, exception or None)."""
    out = {}

    def run():
        try:
            out["summary"] = eng.shutdown(drain=True)
        except Exception as exc:
            out["error"] = exc

    t = threading.Thread(target=run, daemon=True)
    t.start()
    t.join(timeout)
    assert not t.is_alive(), "shutdown() hung"
    return out.get("summary"), out.get("error")


SLOW = 7.0  # a job of all-SLOW LLRs stalls, or raises in, the spy decode


def test_killed_child_fails_its_groups_and_is_reaped(two_cpus, monkeypatch):
    real = engine_mod._decode_lanes

    def spy(code, lanes, *args):  # inherited by the child at the fork
        if (lanes == SLOW).all():
            time.sleep(60)
        return real(code, lanes, *args)

    monkeypatch.setattr(engine_mod, "_decode_lanes", spy)
    eng = engine_start(NP_CODE, np_config(), StreamConfig(w=2, f=2, queue_depth=2))
    st = eng._streams[1]
    jobs = np_jobs(10, 2, seed=9)
    assert eng.submit(DecodeJob(job_id=0, frames=jobs[0])).stream == 0
    assert eng.submit(DecodeJob(job_id=1, frames=np.full((2, NP_CODE.n), SLOW))).stream == 1
    wait_for(lambda: st.in_flight == 1)
    os.kill(st.child.pid, signal.SIGKILL)
    assert st.conn.poll(10)  # EOF: the child is dead, and not yet reaped
    streams = {i: eng.submit(DecodeJob(job_id=i, frames=jobs[i])).stream
               for i in range(2, 10)}
    assert 1 in streams.values()
    summary, error = bounded_shutdown(eng)
    assert summary is None and isinstance(error, RuntimeError)
    failed = {1} | {i for i, s in streams.items() if s == 1}
    summary = eng.shutdown()
    assert set(summary.failed_job_ids) == failed
    assert summary.accepted == 10 == summary.completed + summary.failed
    got = dict(eng.collect())
    assert sorted(got) == sorted(set(range(10)) - failed)
    for jid, outcome in got.items():
        assert_standalone(outcome, jobs[jid], NP_CODE, np_config())
    with pytest.raises(ChildProcessError):  # shutdown() has reaped it
        os.waitpid(st.child.pid, os.WNOHANG)
    assert st.child.exitcode == -signal.SIGKILL


def test_child_decode_error_fails_only_its_group(two_cpus, monkeypatch):
    real = engine_mod._decode_lanes

    def spy(code, lanes, *args):
        if (lanes == SLOW).all():
            raise ValueError("injected child failure")
        return real(code, lanes, *args)

    monkeypatch.setattr(engine_mod, "_decode_lanes", spy)
    eng = engine_start(NP_CODE, np_config(), StreamConfig(w=2, f=2, queue_depth=2))
    jobs = np_jobs(10, 2, seed=10)
    assert eng.submit(DecodeJob(job_id=0, frames=jobs[0])).stream == 0
    assert eng.submit(DecodeJob(job_id=1, frames=np.full((2, NP_CODE.n), SLOW))).stream == 1
    wait_for(lambda: eng._failures)  # job 1 failed alone, in a group of its own
    streams = {i: eng.submit(DecodeJob(job_id=i, frames=jobs[i])).stream
               for i in range(2, 10)}
    assert 1 in streams.values()
    with pytest.raises(RuntimeError, match="worker failed on job 1.*injected child"):
        eng.shutdown(drain=True)
    assert eng.shutdown() == ShutdownSummary(10, 9, 0, (), failed=1, failed_job_ids=(1,))
    got = dict(eng.collect())
    assert sorted(got) == [0] + list(range(2, 10))
    for jid, outcome in got.items():
        assert_standalone(outcome, jobs[jid], NP_CODE, np_config())
