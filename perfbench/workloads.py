"""The benchmark's workloads, driven through streamdec's public API.

Every workload uses a generated row-regular code (row degree 6, gen-seed
0) and normalized min-sum with normalization 0.75.  Inputs come from the
``--seed`` argument alone; the program sees only the generated arrays.

A run measures set-up several times, builds the reference outputs
outside any timed window, then runs the workload's phases for the given
seconds and checks every output against the reference.  Each phase
starts its own engine, warms it with one job per stream and then times
only the work that follows.  Every wait on a thread has a deadline, so
a failing or hung worker shows as failed operations, not as a hung run.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import streamdec as sd
from streamdec import bench

ROW_DEGREE = 6
GEN_SEED = 0
NORMALIZATION = 0.75
DEADLINE_S = 20.0  # longest wait for a drain, a join or a warm-up
AFTER_FAILURE_S = 2.0  # how long collect() may run on after a failed shutdown
SETUP_REPS = 5
SETUP_BUDGET_S = 1.5  # small set-ups repeat until this much time is spent
SETUP_MAX_REPS = 30


def ms(seconds):
    return 1e3 * seconds


def percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def outcome_digest(outcome) -> str:
    """Digest of a batch outcome: bits, iterations_run and syndrome_ok."""
    frames = [outcome[i] for i in range(len(outcome))]
    h = hashlib.sha256()
    h.update(np.stack([np.asarray(o.bits, dtype=np.uint8) for o in frames]).tobytes())
    h.update(np.array([o.iterations_run for o in frames], dtype=np.int64).tobytes())
    h.update(np.array([o.syndrome_ok for o in frames], dtype=np.uint8).tobytes())
    return h.hexdigest()[:32]


def run_bounded(fn, timeout, name):
    """Run ``fn`` in a daemon thread for at most ``timeout`` seconds.

    Returns (result, error text); the error is the traceback if ``fn``
    raised, or a note if it was still running at the deadline.
    """
    box = {}

    def target():
        try:
            box["result"] = fn()
        except Exception:  # recorded as a failed operation, never re-raised
            box["error"] = traceback.format_exc(limit=3)

    th = threading.Thread(target=target, name=name, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        return None, f"{name} still running after {timeout:.0f} s"
    return box.get("result"), box.get("error")


# -- engine sessions ---------------------------------------------------------

@dataclass
class JobRecord:
    job_id: int
    payload: int
    called: float  # submit() called
    accepted: bool


@dataclass
class EnginePhase:
    """What one timed engine phase did, as the harness saw it."""

    w: int
    frames_per_job: int
    n: int
    start: float
    records: list = field(default_factory=list)
    collected: dict = field(default_factory=dict)  # job_id -> (digest, time)
    totals: dict = field(default_factory=dict)
    summary: object = None
    errors: list = field(default_factory=list)

    @property
    def completed(self):
        return [r for r in self.records if r.job_id in self.collected]

    @property
    def wall(self):
        ends = [t for _, t in self.collected.values()]
        return (max(ends) - self.start) if ends else float("nan")

    def frames_per_s(self):
        """Frames delivered from the phase's start to its last result."""
        return len(self.completed) * self.frames_per_job / self.wall

    def coded_mbps(self):
        return self.frames_per_s() * self.n / 1e6

    def latency_ms(self, q):
        """Percentile ``q`` of job latency over every job, in ms, timed
        from its submit call to its collection."""
        return percentile([ms(self.collected[r.job_id][1] - r.called)
                           for r in self.completed], q)


@dataclass
class BerPhase:
    start: float
    records: list = field(default_factory=list)  # (seed pick, start, end, counts)
    errors: list = field(default_factory=list)


class EngineSession:
    """An engine plus one collecting thread that timestamps each result.

    The collector keeps each result's digest, not the result, so the
    harness's memory does not grow with the number of jobs.  It digests
    after taking the time and before waking a waiting submitter, so the
    digest counts in neither a job's latency nor the next job's.
    """

    def __init__(self, code, cfg, stream_cfg, job_hook=None):
        self.engine = sd.engine_start(code, cfg, stream_cfg, job_hook=job_hook)
        self.w = stream_cfg.w
        self.collected = {}
        self._arrived = threading.Condition()
        self._collector = threading.Thread(target=self._collect, daemon=True,
                                           name="bench-collector")
        self._collector.start()

    def _collect(self):
        for job_id, outcome in self.engine.collect():
            t = time.perf_counter()
            digest = outcome_digest(outcome)
            with self._arrived:
                self.collected[job_id] = (digest, t)
                self._arrived.notify_all()

    def wait_collected(self, ids, timeout=DEADLINE_S):
        """Wait until every job in ``ids`` is collected; False on timeout."""
        with self._arrived:
            return self._arrived.wait_for(
                lambda: all(i in self.collected for i in ids), timeout)

    def warm_up(self, payload):
        """One job per stream, waited for, then the engine's timers reset."""
        ids = []
        for _ in range(self.w):
            job = self.engine.make_job(payload)
            if self.engine.submit(job).accepted:
                ids.append(job.job_id)
        done = self.wait_collected(ids)
        with self._arrived:
            for i in ids:
                self.collected.pop(i, None)
        self.engine.reset_timers()
        return done and len(ids) == self.w

    def close(self):
        """Drain and stop; return (summary or None, error texts)."""
        errors = []
        summary, err = run_bounded(
            lambda: self.engine.shutdown(drain=True), DEADLINE_S, "bench-shutdown")
        if err:
            errors.append(err)
        self._collector.join(DEADLINE_S if summary is not None else AFTER_FAILURE_S)
        if self._collector.is_alive():
            errors.append("collect() did not return after shutdown")
        return summary, errors


def drive_engine(session, payloads, seconds, serial=False):
    """Closed loop from one submitting thread; the session's thread collects.

    By default the next job is submitted as soon as submit() returns, so
    backpressure paces the loop.  With ``serial`` one job is in flight at
    a time: the next is submitted once the last one is collected, as a
    single caller waiting for each reply would.
    """
    eng = session.engine
    phase = EnginePhase(w=session.w, frames_per_job=payloads[0].shape[0],
                        n=payloads[0].shape[1], start=time.perf_counter())
    end = phase.start + seconds

    def submitter():
        for i in itertools.count():
            if time.perf_counter() >= end:
                return
            job = eng.make_job(payloads[i % len(payloads)])
            called = time.perf_counter()
            status = eng.submit(job)
            phase.records.append(JobRecord(job.job_id, i % len(payloads), called,
                                           status.accepted))
            if serial and status.accepted and not session.wait_collected([job.job_id]):
                return  # a lost job fails; a hung engine would fail the rest too

    _, err = run_bounded(submitter, seconds + DEADLINE_S, "bench-submitter")
    if err:
        phase.errors.append(err)
    phase.summary, errors = session.close()
    phase.errors.extend(errors)
    phase.totals = eng.phase_totals()
    phase.collected = dict(session.collected)
    return phase


def check_engine_phase(phase, ref_digests):
    """(attempted, failed): refusals, missing results and mismatches fail."""
    if not phase.records and phase.errors:
        return 1, 1  # the phase could not start
    failed = 0
    for r in phase.records:
        got = phase.collected.get(r.job_id)
        if not r.accepted or got is None or got[0] != ref_digests[r.payload]:
            failed += 1
    return len(phase.records), failed


def measure_setup(wl):
    """Set up SETUP_REPS times or for SETUP_BUDGET_S; the median of each part."""
    reps, spent = [], 0.0
    while len(reps) < SETUP_MAX_REPS and (len(reps) < SETUP_REPS or spent < SETUP_BUDGET_S):
        code, t = wl.setup_once()
        reps.append(t)
        spent += t["setup_s"]
    med = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    med["reps"] = len(reps)
    return code, med


# -- workload definitions ------------------------------------------------------

@dataclass(frozen=True)
class Phase:
    name: str
    w: int
    share: float  # of the run's seconds
    serial: bool = False  # one job in flight at a time


@dataclass(frozen=True)
class EngineWorkload:
    """Jobs of F frames pushed through the engine: an optional w=1 phase,
    then the w=2 "main" phase, which gives latency and frames/s and is the
    one traced."""

    name: str
    n: int
    m: int
    schedule: str
    iterations: int
    f: int
    pool: int  # distinct payloads, cycled
    phases: tuple
    primary: str  # the end-to-end metric the trace overhead is taken on
    queue_depth: int = 4
    tag: int = 0xB
    # Run the whole process on one CPU.  The GIL lets one thread run Python
    # at a time anyway; on one CPU a job's hand-offs between the submitting,
    # worker and collecting threads do not wait for a second, idle vCPU to
    # be scheduled by the host, which on a shared host made the tail of a
    # ~4 ms job repeat poorly.
    one_cpu: bool = False

    def decoder_config(self):
        return sd.DecoderConfig(schedule=self.schedule, max_iterations=self.iterations,
                                early_termination=False, normalization=NORMALIZATION)

    def stream_config(self, w):
        return sd.StreamConfig(w=w, f=self.f, queue_depth=self.queue_depth,
                               backpressure="block")

    def payloads(self, seed):
        """LLR payloads shaped (F, n), as run_throughput draws them."""
        rng = np.random.default_rng(np.random.SeedSequence((seed, self.tag)))
        return [rng.normal(0.0, 4.0, size=(self.f, self.n)) for _ in range(self.pool)]

    def setup_once(self):
        """Build, systematic form, engine start and warm-up, timed apart."""
        t0 = time.perf_counter()
        code = sd.random_regular_code(self.n, self.m, ROW_DEGREE, GEN_SEED)
        t1 = time.perf_counter()
        sd.systematic_form(code)
        t2 = time.perf_counter()
        session = EngineSession(code, self.decoder_config(), self.stream_config(2))
        warm = session.warm_up(np.zeros((self.f, self.n)))
        t3 = time.perf_counter()
        _, errors = session.close()
        if not warm or errors:
            raise RuntimeError(f"set-up failed: warm-up done={warm}, {errors}")
        return code, {"build_s": t1 - t0, "systematic_form_s": t2 - t1, "setup_s": t3 - t0}

    def reference(self, code, seed):
        """Direct decode_batch of every payload, outside any timed window."""
        cfg = self.decoder_config()
        payloads = self.payloads(seed)
        digests = [outcome_digest(sd.decode_batch(code, sd.interleave(p), cfg))
                   for p in payloads]
        return {"payloads": payloads, "digests": digests}

    def run_phase(self, code, ref, phase, seconds, tracer=None):
        """Start an engine, warm it, drive it.  Under a tracer the engine
        starts with the tracer installed, so its collect() is traced too;
        the warm-up's spans are dropped before the timed window."""
        with tracer.installed() if tracer else contextlib.nullcontext():
            session = EngineSession(code, self.decoder_config(), self.stream_config(phase.w),
                                    job_hook=tracer.job_hook if tracer else None)
            if not session.warm_up(ref["payloads"][0]):
                _, errors = session.close()
                return EnginePhase(w=phase.w, frames_per_job=self.f, n=self.n,
                                   start=time.perf_counter(),
                                   errors=[f"{phase.name}: warm-up did not finish"] + errors)
            if tracer:
                tracer.spans.clear()
            return drive_engine(session, ref["payloads"], seconds, phase.serial)

    def measure(self, code, ref, seconds, only_main=False, tracer=None):
        """Run the phases; return ({phase name: EnginePhase}, attempted, failed)."""
        out, attempted, failed = {}, 0, 0
        for phase in self.phases:
            if only_main and phase.name != "main":
                continue
            share = 1.0 if only_main else phase.share
            result = self.run_phase(code, ref, phase, share * seconds,
                                    tracer if phase.name == "main" else None)
            a, f = check_engine_phase(result, ref["digests"])
            attempted, failed = attempted + a, failed + f
            out[phase.name] = result
        return out, attempted, failed

    def end_to_end(self, phases):
        """End-to-end metrics of the phases that ran.  A workload without a
        w=1 phase reports its main phase's rate as throughput_mbps_w1 too,
        as ber-sweep does."""
        main = phases["main"]
        out = {
            "throughput_mbps": main.coded_mbps(),
            "job_latency_p50_ms": main.latency_ms(50),
            "job_latency_p90_ms": main.latency_ms(90),
            "ber_frames_per_s": main.frames_per_s(),
        }
        if "w1" in phases:
            out["throughput_mbps_w1"] = phases["w1"].coded_mbps()
        elif all(p.name != "w1" for p in self.phases):
            out["throughput_mbps_w1"] = out["throughput_mbps"]
        return out


# Waterfall, middle and high-SNR points.  2.5 dB is left out: whether one of
# a batch's 32 frames fails there, and so whether the batch runs 5 or 20
# sweeps, depends on the seed, which made the sweep's cost seed-dependent.
BER_EBNO_DB = (1.5, 3.0, 4.0)
BER_MESSAGE_TAG = 0x5E  # run_ber draws its messages from SeedSequence((seed, 0x5E))


@dataclass(frozen=True)
class BerWorkload:
    """bench.run_ber calls of one batch per Eb/N0 point, cycled over seeds,
    from one client thread."""

    name: str = "ber-sweep"
    n: int = 576
    m: int = 288
    iterations: int = 20
    f: int = 32
    pool: int = 4  # distinct run_ber seeds, cycled
    primary: str = "ber_frames_per_s"
    tag: int = 0xBE5

    @property
    def frames_per_call(self):
        return self.f * len(BER_EBNO_DB)

    def decoder_config(self):
        return sd.DecoderConfig(schedule="layered", max_iterations=self.iterations,
                                early_termination=True, normalization=NORMALIZATION)

    def call_seeds(self, seed):
        state = np.random.SeedSequence((seed, self.tag)).generate_state(self.pool)
        return [int(s) for s in state]

    def setup_once(self):
        """Build, systematic form and one warm-up decode of noiseless frames."""
        t0 = time.perf_counter()
        code = sd.random_regular_code(self.n, self.m, ROW_DEGREE, GEN_SEED)
        t1 = time.perf_counter()
        sd.systematic_form(code)
        t2 = time.perf_counter()
        sd.decode_batch(code, sd.interleave(np.full((self.f, self.n), 4.0)),
                        self.decoder_config())
        t3 = time.perf_counter()
        return code, {"build_s": t1 - t0, "systematic_form_s": t2 - t1, "setup_s": t3 - t0}

    def reference(self, code, seed):
        """Bit and frame error counts per seed and point, rebuilt from the
        public API: encode, modulate, transmit, LLR, decode_batch."""
        gen = sd.systematic_form(code)
        cfg = self.decoder_config()
        seeds = self.call_seeds(seed)
        counts = []
        for s in seeds:
            rng = np.random.default_rng(np.random.SeedSequence((s, BER_MESSAGE_TAG)))
            messages = rng.integers(0, 2, size=(self.f, gen.k), dtype=np.uint8)
            codewords = [sd.modulate_bpsk(gen.encode(msg)) for msg in messages]
            per_point = []
            for ebno in BER_EBNO_DB:
                ch = sd.AwgnChannel(ebno, gen.k / code.n, seed=s)
                block = np.stack([sd.llr_from_channel(ch, sd.transmit(ch, x, frame_index=j))
                                  for j, x in enumerate(codewords)])
                out = sd.decode_batch(code, sd.interleave(block), cfg)
                errs = [int(np.count_nonzero(out[j].bits[gen.message_columns] != messages[j]))
                        for j in range(self.f)]
                per_point.append([sum(errs), sum(e > 0 for e in errs)])
            counts.append(per_point)
        return {"seeds": seeds, "counts": counts}

    def run_calls(self, code, ref, seconds, tracer=None):
        """run_ber calls, one after another, until ``seconds`` have passed."""
        cfg = self.decoder_config()
        phase = BerPhase(start=time.perf_counter())
        end = phase.start + seconds

        def client():
            for i in itertools.count():
                if time.perf_counter() >= end:
                    return
                pick = i % self.pool
                if tracer is not None:
                    tracer.set_job(i)
                t0 = time.perf_counter()
                res = bench.run_ber(code, cfg, list(BER_EBNO_DB), self.f,
                                    seed=ref["seeds"][pick], f=self.f)
                phase.records.append((pick, t0, time.perf_counter(),
                                      [[r.bit_errors, r.frame_errors] for r in res]))

        _, err = run_bounded(client, seconds + DEADLINE_S, "bench-ber")
        if err:
            phase.errors.append(err)
        return phase

    def measure(self, code, ref, seconds, only_main=False, tracer=None):
        """One phase; return ({"main": phase}, attempted, failed) in batches."""
        if tracer is None:
            phase = self.run_calls(code, ref, seconds)
        else:
            with tracer.installed():
                phase = self.run_calls(code, ref, seconds, tracer)
        points = len(BER_EBNO_DB)
        attempted = failed = 0
        for pick, _, _, counts in phase.records:
            attempted += points
            failed += sum(a != b for a, b in zip(counts, ref["counts"][pick]))
        # a call that raised or never ended failed all of its batches
        attempted += points * len(phase.errors)
        failed += points * len(phase.errors)
        return {"main": phase}, attempted, failed

    def end_to_end(self, phases):
        """There is one client thread and no engine, so both throughput
        metrics report the sweep's coded rate."""
        phase = phases["main"]
        recs = phase.records
        frames_per_s = (len(recs) * self.frames_per_call
                        / (max(r[2] for r in recs) - phase.start)) if recs else 0.0
        lat = [ms(t1 - t0) for _, t0, t1, _ in recs]
        return {
            "throughput_mbps": frames_per_s * self.n / 1e6,
            "throughput_mbps_w1": frames_per_s * self.n / 1e6,
            "job_latency_p50_ms": percentile(lat, 50),
            "job_latency_p90_ms": percentile(lat, 90),
            "ber_frames_per_s": frames_per_s,
        }


WORKLOADS = {
    "tput-layered": EngineWorkload(
        name="tput-layered", n=576, m=288, schedule="layered", iterations=10,
        f=32, pool=8,
        phases=(Phase("w1", w=1, share=0.4), Phase("main", w=2, share=0.6)),
        primary="throughput_mbps"),
    "stream-flooding": EngineWorkload(
        name="stream-flooding", n=96, m=48, schedule="flooding", iterations=10,
        f=8, pool=16,
        phases=(Phase("main", w=2, share=1.0, serial=True),),
        primary="job_latency_p50_ms", one_cpu=True),
    "ber-sweep": BerWorkload(),
}
