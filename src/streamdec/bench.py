"""Benchmark runners: throughput, BER/FER sweeps, and schedule comparison.

All runners are deterministic under a fixed seed.  Throughput wall times
naturally vary between runs; every other reported figure is reproducible
byte for byte, which the CLI relies on for stable CSV output.
"""

import math
import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .batch import decode_batch
from .channel import AwgnChannel, frame_noise, llr_from_channel, modulate_bpsk
from .code import ParityCheckCode, systematic_form
from .decoder import DecoderConfig
from .engine import StreamConfig, engine_start

THROUGHPUT_CSV_HEADER = (
    "n,m,schedule,backend,w,f,iterations,repeat,frames_decoded,"
    "wall_time_s,throughput_mbps,interleave_s,decode_s,deinterleave_s"
)
BER_CSV_HEADER = (
    "n,m,k,schedule,backend,iterations,ebno_db,frames,"
    "bit_errors,frame_errors,ber,fer"
)
COMPARE_CSV_HEADER = (
    "n,m,backend,max_iterations,ebno_db,frames,"
    "mean_iters_flooding,mean_iters_layered,converged_flooding,converged_layered"
)


@dataclass(frozen=True)
class BenchResult:
    """One timed throughput run (a single repeat)."""

    n: int
    m: int
    schedule: str
    backend: str
    w: int
    f: int
    iterations: int
    repeat: int
    frames_decoded: int
    wall_time: float
    throughput_mbps: float
    per_phase: dict

    def csv_row(self) -> str:
        p = self.per_phase
        return (f"{self.n},{self.m},{self.schedule},{self.backend},{self.w},"
                f"{self.f},{self.iterations},{self.repeat},{self.frames_decoded},"
                f"{self.wall_time:.6f},{self.throughput_mbps:.4f},"
                f"{p['interleave']:.6f},{p['decode']:.6f},{p['deinterleave']:.6f}")


@dataclass(frozen=True)
class BerResult:
    ebno_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float

    def csv_row(self, n, m, k, schedule, backend, iterations) -> str:
        return (f"{n},{m},{k},{schedule},{backend},{iterations},"
                f"{self.ebno_db:g},{self.frames},{self.bit_errors},"
                f"{self.frame_errors},{self.ber:.10g},{self.fer:.10g}")


@dataclass(frozen=True)
class CompareResult:
    ebno_db: float
    frames: int
    mean_iters_flooding: float
    mean_iters_layered: float
    converged_flooding: int
    converged_layered: int

    def csv_row(self, n, m, backend, max_iterations) -> str:
        return (f"{n},{m},{backend},{max_iterations},{self.ebno_db:g},"
                f"{self.frames},{self.mean_iters_flooding:.6f},"
                f"{self.mean_iters_layered:.6f},{self.converged_flooding},"
                f"{self.converged_layered}")


def _workload_pool(code: ParityCheckCode, jobs: int, f: int, seed: int) -> list:
    """Deterministic LLR payloads shaped (f, n); cycled when jobs > 64."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB)))
    return [np.asarray(rng.normal(0.0, 4.0, size=(f, code.n)), dtype=np.float64)
            for _ in range(min(jobs, 64))]


def run_throughput(code: ParityCheckCode, decoder_config: DecoderConfig,
                   w: int, f: int, frames: int | None = None,
                   seconds: float | None = None, repeats: int = 3,
                   seed: int = 0) -> list[BenchResult]:
    """Time a fixed workload through the stream engine.

    Exactly one of ``frames`` / ``seconds`` selects the workload size.
    Each repeat uses a fresh engine; one warm-up job per stream runs before
    the clock starts and is excluded from every reported figure.
    """
    if (frames is None) == (seconds is None):
        raise ValueError("exactly one of frames/seconds must be given")
    if frames is not None and frames < 1:
        raise ValueError("frames must be >= 1")
    if f < 1:
        raise ValueError("f must be >= 1")
    if seconds is not None and seconds <= 0:
        raise ValueError("seconds must be > 0")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    n_jobs = -(-frames // f) if frames is not None else 0
    pool = _workload_pool(code, max(n_jobs, 8), f, seed)
    results = []
    for rep in range(repeats):
        eng = engine_start(code, decoder_config,
                           StreamConfig(w=w, f=f, backpressure="block"))
        outcomes = eng.collect()
        warm_up = [eng.submit(eng.make_job(pool[0])) for _ in range(w)]  # one per worker
        assert all(status.accepted for status in warm_up)
        for _ in warm_up:  # wait for the warm-up results and discard them
            next(outcomes)
        eng.reset_timers()
        drainer = threading.Thread(target=lambda: deque(outcomes, maxlen=0),
                                   daemon=True)
        drainer.start()

        t0 = time.perf_counter()
        i = 0
        while (i < n_jobs if frames is not None
               else time.perf_counter() - t0 < seconds):
            if not eng.submit(eng.make_job(pool[i % len(pool)])).accepted:
                raise RuntimeError("the blocking engine refused a job")
            i += 1
        summary = eng.shutdown(drain=True)
        wall = time.perf_counter() - t0
        drainer.join()

        done = summary.completed - w  # exclude warm-up
        totals = eng.phase_totals()
        per_phase = {"interleave": totals["interleave"] / w,
                     "decode": totals["decode"] / w,
                     "deinterleave": totals["deinterleave"] / w}
        frames_decoded = done * f
        results.append(BenchResult(
            n=code.n, m=code.m, schedule=decoder_config.schedule,
            backend=decoder_config.backend, w=w, f=f,
            iterations=decoder_config.max_iterations, repeat=rep,
            frames_decoded=frames_decoded, wall_time=wall,
            throughput_mbps=frames_decoded * code.n / wall / 1e6,
            per_phase=per_phase))
    return results


def median_throughput(results: list[BenchResult]) -> float:
    return float(np.median([r.throughput_mbps for r in results]))


def _message_batches(frames, k, f, seed, all_zeros):
    """(first frame, (F', k) uint8 messages) of each batch of ``f`` frames.

    Random messages come from one generator, drawn 4 * f rows at a time:
    numpy's bounded uint8 draw consumes whole 32-bit words per call, and
    a call for a multiple of 4 values leaves no part of one unused, so the
    chunks equal one draw of every message while only one is held.
    """
    mrng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E)))
    for first in range(0, frames, 4 * f):
        rows = min(4 * f, frames - first)
        chunk = (np.zeros((rows, k), dtype=np.uint8) if all_zeros
                 else mrng.integers(0, 2, size=(rows, k), dtype=np.uint8))
        for b in range(0, rows, f):
            yield first + b, chunk[b:b + f]


def _sweep(code, configs, ebno_list, frames, seed, f, all_zeros, noiseless=False):
    """The loop of run_ber and run_compare_schedules.

    Each batch of ``f`` frames is encoded once, and each frame's
    standard-normal noise is drawn once and scaled for every point.  The
    P points' LLRs fill one (n, P * F') lane block, point p in columns
    p * F' to (p + 1) * F', which is decoded once under every config.
    Returns the points' channels, k, and per config and point the sums
    [bit errors on message positions, frame errors, iterations run,
    converged frames].
    """
    if not ebno_list:
        raise ValueError("ebno_list must be non-empty")
    if frames < 1:
        raise ValueError("frames must be >= 1")
    if f < 1:
        raise ValueError("f must be >= 1")
    gen = systematic_form(code)
    k = gen.k
    if k == 0:  # every error rate would divide by zero bits
        raise ValueError("the code has no message bits (k = 0)")

    channels = [AwgnChannel(float(ebno), k / code.n, seed=seed) for ebno in ebno_list]
    points = len(channels)
    tally = np.zeros((len(configs), points, 4), dtype=np.int64)
    for start, sent in _message_batches(frames, k, f, seed, all_zeros):
        fb = len(sent)
        symbols = modulate_bpsk(gen.encode(sent))
        if not noiseless:
            noise = np.stack([frame_noise(seed, start + j, code.n) for j in range(fb)])
        block = np.empty((code.n, points * fb))
        for p, ch in enumerate(channels):
            llrs = (4.0 * symbols if noiseless else llr_from_channel(
                ch, symbols + math.sqrt(ch.noise_variance) * noise))
            block[:, p * fb:(p + 1) * fb] = llrs.T
        for c, cfg in enumerate(configs):
            outcome = decode_batch(code, block, cfg)  # lane p * fb + j is frame j at point p
            bits = outcome.bits.reshape(points, fb, code.n)[:, :, gen.message_columns]
            errs = np.count_nonzero(bits != sent, axis=2)
            iters = outcome.iterations.reshape(points, fb)
            ok = outcome.syndrome_ok.reshape(points, fb)
            tally[c] += np.column_stack((errs.sum(axis=1), np.count_nonzero(errs, axis=1),
                                         iters.sum(axis=1), ok.sum(axis=1)))
    return channels, k, tally.tolist()


def run_ber(code: ParityCheckCode, decoder_config: DecoderConfig,
            ebno_list: list[float], frames: int, seed: int = 0,
            f: int = 32, all_zeros: bool = False,
            noiseless: bool = False) -> list[BerResult]:
    """Monte-Carlo BER/FER sweep over Eb/N0 points.

    Errors are counted on message positions only (k bits per frame).  The
    same message draw and the same standard-normal noise stream are reused
    across Eb/N0 points so curves differ only through the noise scale.
    Each batch of ``f`` frames is encoded once, its noise is drawn once
    per frame, and all P points of the batch decode as one (n, P * f)
    lane block; memory does not grow with ``frames``.
    """
    channels, k, tally = _sweep(code, [decoder_config], ebno_list, frames, seed,
                                f, all_zeros, noiseless)
    return [BerResult(ebno_db=ch.ebno_db, frames=frames, bit_errors=be,
                      frame_errors=fe, ber=be / (frames * k), fer=fe / frames)
            for ch, (be, fe, _, _) in zip(channels, tally[0])]


def run_compare_schedules(code: ParityCheckCode, ebno_list: list[float],
                          frames: int, max_iterations: int = 10,
                          seed: int = 0, f: int = 32,
                          normalization: float = 1.0,
                          backend: str | None = None) -> list[CompareResult]:
    """Mean iterations-to-convergence, flooding vs layered, shared noise.

    Both schedules decode the same LLR blocks as ``run_ber`` with
    ``all_zeros=True`` (all-zeros codeword methodology), with early
    termination on; frames that never converge count as max_iterations,
    which is the iteration count the kernels report for them.
    """
    configs = [DecoderConfig(schedule=s, max_iterations=max_iterations,
                             early_termination=True, normalization=normalization,
                             backend=backend)
               for s in ("flooding", "layered")]
    channels, _, (flooding, layered) = _sweep(code, configs, ebno_list, frames,
                                              seed, f, all_zeros=True)
    return [CompareResult(ebno_db=ch.ebno_db, frames=frames,
                          mean_iters_flooding=fl[2] / frames,
                          mean_iters_layered=la[2] / frames,
                          converged_flooding=fl[3], converged_layered=la[3])
            for ch, fl, la in zip(channels, flooding, layered)]
