"""Multi-stream decode engine.

W worker threads each own a bounded FIFO of jobs.  A worker takes every
job queued on its stream, in FIFO order, without waiting for more, stacks
their frames into one lane-major block, decodes it in one lockstep call
and hands back one result per job, in FIFO order.  Lanes are independent,
so the results are bit-identical to decoding each job alone, and the
group pays kernel dispatch and, on the numpy backend, GIL hand-offs once
instead of once per job.  The residency rule below bounds a group at
queue_depth jobs, so at most queue_depth * f lanes.  On the numpy backend
a 576x288 layered group peaks at about 29 KB per lane: the packed block,
which the decode reads and never writes, plus the decode's clipped copy
and working arrays; with early termination about 36 KB, as a lane's
departure copies the working arrays while the old ones are held.
Flooding decodes 32 lanes at a time, so its working arrays do not grow
with the group; a 576x288 flooding decode peaks at 3.9 MB for 128 lanes
and 6.0 MB for 512, beside the packed block.  The
numba kernels release the GIL for a whole decode, so streams overlap on
real cores; numpy releases it only inside each array operation, which is
why wide groups matter there.
Dispatch picks the least-loaded stream (queued plus in-flight), breaking
ties round-robin, so equally idle streams are filled in rotation.

One lock guards all shared state, and threads wait only on conditions
of that lock, so nothing polls.  Every accepted job ends completed
(collectable), cancelled at shutdown, or failed (its hook or its group's
decode raised): accepted = completed + cancelled + failed.  A stream takes
a job while its queued jobs plus all but one of its in-flight jobs number
fewer than queue_depth, so it holds at most queue_depth + 1 jobs and the
engine at most w * queue_depth + w.  A job id is live until its result
is collected or the job is cancelled or fails; a live id is refused as
a duplicate, and a retired one may be reused.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .batch import BatchOutcome
from .code import ParityCheckCode
from .decoder import DecoderConfig, _decode_lanes, _real_llrs

__all__ = [
    "StreamConfig",
    "DecodeJob",
    "SubmitStatus",
    "ShutdownSummary",
    "Engine",
    "engine_start",
]

BACKPRESSURE_POLICIES = ("block", "reject")


@dataclass(frozen=True)
class StreamConfig:
    """w parallel streams and f frames per batch; each stream holds at most
    queue_depth + 1 jobs, queued or in flight.

    A worker decodes all the jobs queued on its stream as one group of at
    most queue_depth * f lanes.  On the numpy backend a 576x288 layered
    group needs about 29 KB per lane, packed block included, and about
    36 KB with early termination; flooding runs 32 lanes at a time, and
    a 128-lane flooding decode peaks at 3.9 MB beside its packed block.
    """

    w: int = 1
    f: int = 32
    queue_depth: int = 4
    backpressure: str = "block"

    def __post_init__(self):
        for name in ("w", "f", "queue_depth"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(f"backpressure must be one of {BACKPRESSURE_POLICIES}")


@dataclass
class DecodeJob:
    """One batch of f frames.

    job_id must not be live: accepted and not yet collected, cancelled or
    failed.  It may be reused once its result has been collected.
    """

    job_id: int
    frames: np.ndarray


@dataclass(frozen=True)
class SubmitStatus:
    accepted: bool
    stream: int | None = None
    reason: str | None = None


@dataclass(frozen=True)
class ShutdownSummary:
    """Fate of every accepted job: accepted = completed + cancelled + failed."""

    accepted: int
    completed: int
    cancelled: int
    cancelled_job_ids: tuple = field(default_factory=tuple)
    failed: int = 0
    failed_job_ids: tuple = field(default_factory=tuple)


class _Stream:
    __slots__ = ("index", "jobs", "in_flight", "ready", "thread")

    def __init__(self, index, lock):
        self.index = index
        self.jobs = deque()  # (job_id, frames), at most queue_depth long
        self.in_flight = 0  # jobs in the group being decoded
        self.ready = threading.Condition(lock)  # jobs queued or engine stopping
        self.thread = None


class Engine:
    """Running decode engine; create via engine_start()."""

    def __init__(self, code: ParityCheckCode, decoder_config: DecoderConfig,
                 stream_config: StreamConfig, job_hook=None):
        self.code = code
        self.decoder_config = decoder_config
        self.stream_config = stream_config
        self._job_hook = job_hook  # instrumentation: called with each job at start
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)  # a queue slot freed, or stopping
        self._done = threading.Condition(self._lock)  # a result arrived, or the summary
        self._results = deque()
        self._streams = [_Stream(i, self._lock) for i in range(stream_config.w)]
        self._rr = stream_config.w - 1  # so the first pick lands on stream 0
        self._accepted = 0
        self._completed = 0
        self._failures = []  # (job_id, exception), in the order they happened
        self._next_id = 0
        self._live_ids = set()
        self._stopping = False
        self._summary: ShutdownSummary | None = None
        self._timers = {"interleave": 0.0, "decode": 0.0, "deinterleave": 0.0,
                        "batches": 0}
        for st in self._streams:
            st.thread = threading.Thread(target=self._worker, args=(st,),
                                         name=f"streamdec-w{st.index}", daemon=True)
            st.thread.start()

    # -- job helpers ---------------------------------------------------------

    def make_job(self, frames) -> DecodeJob:
        """A job carrying the next id this engine hands out."""
        with self._lock:
            job_id = self._next_id
            self._next_id += 1
        return DecodeJob(job_id=job_id, frames=frames)

    # -- submission ------------------------------------------------------

    def _select_stream(self):
        """Least loaded among streams with queue space, tie round-robin.

        An in-flight group holds one job's slot beyond queue_depth.
        """
        rotated = self._streams[self._rr + 1:] + self._streams[:self._rr + 1]
        depth = self.stream_config.queue_depth
        return min((st for st in rotated
                    if len(st.jobs) + max(st.in_flight - 1, 0) < depth),
                   key=lambda st: len(st.jobs) + st.in_flight, default=None)

    def submit(self, job: DecodeJob) -> SubmitStatus:
        """Queue one job; blocks or rejects when every stream is full.

        A float64 frames array is queued by reference, not copied, and read
        when the job is decoded: do not modify it until its result has been
        collected.
        """
        try:
            frames = _real_llrs(job.frames)
        except ValueError as e:
            return SubmitStatus(False, None, str(e))
        want = (self.stream_config.f, self.code.n)
        if frames.shape != want:
            return SubmitStatus(False, None,
                                f"frames shape {frames.shape} != expected {want}")
        if not np.isfinite(frames).all():
            return SubmitStatus(False, None, "frames contain non-finite values")
        with self._lock:
            while True:
                if self._stopping:
                    return SubmitStatus(False, None, "engine stopped")
                if job.job_id in self._live_ids:
                    return SubmitStatus(False, None, f"duplicate job_id {job.job_id}")
                st = self._select_stream()
                if st is not None:
                    break
                if self.stream_config.backpressure == "reject":
                    return SubmitStatus(False, None, "queues full")
                self._space.wait()
            st.jobs.append((job.job_id, frames))
            st.ready.notify()
            self._accepted += 1
            self._live_ids.add(job.job_id)
            self._rr = st.index
            return SubmitStatus(True, st.index, None)

    # -- worker ----------------------------------------------------------

    def _worker(self, st: _Stream):
        while self._serve(st):
            pass

    def _serve(self, st: _Stream) -> bool:
        """Decode one group of st's jobs; False once stopping with none queued.

        The group's arrays are locals of this call, so none outlives it
        while the worker sleeps.
        """
        with self._lock:
            st.ready.wait_for(lambda: st.jobs or self._stopping)
            if not st.jobs:
                return False
            group = list(st.jobs)
            st.jobs.clear()
            st.in_flight = len(group)
            self._space.notify_all()
        failures, ready = [], group
        if self._job_hook is not None:
            ready = []
            for job_id, frames in group:
                try:
                    self._job_hook(job_id)
                except Exception as exc:  # fails this job alone
                    failures.append((job_id, exc))
                else:
                    ready.append((job_id, frames))
        outcomes = []
        if ready:
            try:
                outcomes, seconds = self._decode_group(ready)
            except Exception as exc:  # decode bugs must surface at shutdown
                failures.extend((job_id, exc) for job_id, _ in ready)
        with self._lock:
            # no wake-up for submitters: a stream is full only with jobs
            # queued, so this worker's next take frees its space and notifies
            st.in_flight = 0
            self._failures.extend(failures)
            self._live_ids.difference_update(job_id for job_id, _ in failures)
            if outcomes:
                self._completed += len(outcomes)
                for phase, secs in zip(("interleave", "decode", "deinterleave"), seconds):
                    self._timers[phase] += secs
                self._timers["batches"] += len(outcomes)
                self._results.extend(outcomes)
                self._done.notify_all()
        return True

    def _decode_group(self, group):
        """One lockstep decode of the group's frames.

        Returns [(job_id, BatchOutcome)] in group order, each outcome made
        of row slices of the group's arrays, and the seconds spent packing,
        decoding and slicing.
        """
        f = self.stream_config.f
        t0 = time.perf_counter()
        lanes = np.empty((self.code.n, f * len(group)))
        np.concatenate([frames.T for _, frames in group], axis=1, out=lanes)
        t1 = time.perf_counter()
        bits, iters, ok, _ = _decode_lanes(self.code, lanes, self.decoder_config)
        t2 = time.perf_counter()
        rows = bits.T
        outcomes = [(job_id, BatchOutcome(rows[a:a + f], iters[a:a + f], ok[a:a + f]))
                    for (job_id, _), a in zip(group, range(0, len(rows), f))]
        t3 = time.perf_counter()
        return outcomes, (t1 - t0, t2 - t1, t3 - t2)

    # -- collection --------------------------------------------------------

    def collect(self):
        """Yield (job_id, BatchOutcome) until shut down and fully drained.

        Per-stream results arrive in that stream's submission order.
        Safe to call from several threads; each result goes to one caller.
        """
        while True:
            with self._lock:
                self._done.wait_for(lambda: self._results or self._summary is not None)
                if not self._results:
                    return
                item = self._results.popleft()
                self._live_ids.discard(item[0])
            yield item

    # -- shutdown ----------------------------------------------------------

    def shutdown(self, drain: bool = True) -> ShutdownSummary:
        """Stop accepting work; drain or cancel what is queued.

        drain=True decodes everything already accepted; drain=False
        cancels queued (never in-flight) jobs and reports their ids.  After
        a failed job the first call stores the summary, then raises
        RuntimeError; every other call returns the stored summary.
        """
        with self._lock:
            if self._stopping:
                self._done.wait_for(lambda: self._summary is not None)
                return self._summary
            self._stopping = True
            cancelled = []
            for st in self._streams:
                if not drain:
                    cancelled.extend(job_id for job_id, _ in st.jobs)
                    st.jobs.clear()
                st.ready.notify()
            self._live_ids.difference_update(cancelled)
            self._space.notify_all()
        for st in self._streams:
            st.thread.join()
        with self._lock:
            failed_ids = tuple(job_id for job_id, _ in self._failures)
            self._summary = ShutdownSummary(
                accepted=self._accepted,
                completed=self._completed,
                cancelled=len(cancelled),
                cancelled_job_ids=tuple(cancelled),
                failed=len(failed_ids),
                failed_job_ids=failed_ids,
            )
            self._done.notify_all()
        if self._failures:
            job_id, exc = self._failures[0]
            raise RuntimeError(f"worker failed on job {job_id}: {exc!r}") from exc
        return self._summary

    # -- introspection -------------------------------------------------------

    def resident_jobs(self) -> int:
        """Jobs currently held (queued + in-flight)."""
        with self._lock:
            return sum(len(st.jobs) + st.in_flight for st in self._streams)

    def phase_totals(self) -> dict:
        """Busy seconds per pipeline phase summed over all workers, and the
        number of jobs completed ("batches").  A group's seconds are counted
        once, whatever its size."""
        with self._lock:
            return dict(self._timers)

    def reset_timers(self):
        with self._lock:
            for k in self._timers:
                self._timers[k] = 0 if k == "batches" else 0.0


def engine_start(code: ParityCheckCode, decoder_config: DecoderConfig,
                 stream_config: StreamConfig, job_hook=None) -> Engine:
    """Spin up the worker threads and return the running engine."""
    return Engine(code, decoder_config, stream_config, job_hook=job_hook)
