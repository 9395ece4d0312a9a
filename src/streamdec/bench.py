"""Benchmark runners: throughput, BER/FER sweeps, and schedule comparison.

All runners are deterministic under a fixed seed.  Throughput wall times
naturally vary between runs; every other reported figure is reproducible
byte for byte, which the CLI relies on for stable CSV output.
"""

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from .backend import get_kernels
from .batch import decode_batch, interleave
from .channel import AwgnChannel, llr_from_channel, modulate_bpsk, transmit
from .code import ParityCheckCode, systematic_form
from .decoder import DecoderConfig
from .engine import StreamConfig, engine_start

THROUGHPUT_CSV_HEADER = (
    "n,m,schedule,backend,w,f,iterations,repeat,frames_decoded,"
    "wall_time_s,throughput_mbps,transfer_s,interleave_s,decode_s,deinterleave_s"
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
                f"{p['transfer']:.6f},{p['interleave']:.6f},"
                f"{p['decode']:.6f},{p['deinterleave']:.6f}")


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


def _workload_pool(code: ParityCheckCode, jobs: int, f: int, seed: int,
                   pool_cap: int = 64) -> list:
    """Deterministic LLR payloads shaped (f, n); cycled when jobs > pool_cap."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xB)))
    pool = [np.asarray(rng.normal(0.0, 4.0, size=(f, code.n)), dtype=np.float64)
            for _ in range(min(jobs, pool_cap))]
    return pool


def run_throughput(code: ParityCheckCode, decoder_config: DecoderConfig,
                   w: int, f: int, frames: int | None = None,
                   seconds: float | None = None, repeats: int = 3,
                   seed: int = 0, backend: str | None = None,
                   queue_depth: int = 4) -> list[BenchResult]:
    """Time a fixed workload through the stream engine.

    Exactly one of ``frames`` / ``seconds`` selects the workload size.
    Each repeat uses a fresh engine; one warm-up job per stream runs before
    the clock starts and is excluded from every reported figure.
    """
    if (frames is None) == (seconds is None):
        raise ValueError("exactly one of frames/seconds must be given")
    if frames is not None and frames < 1:
        raise ValueError("frames must be >= 1")
    if seconds is not None and seconds <= 0:
        raise ValueError("seconds must be > 0")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")

    n_jobs = -(-frames // f) if frames is not None else 0
    pool = _workload_pool(code, max(n_jobs, 8), f, seed)
    backend_name = get_kernels(backend).NAME
    results = []
    for rep in range(repeats):
        eng = engine_start(code, decoder_config,
                           StreamConfig(w=w, f=f, queue_depth=queue_depth,
                                        backpressure="block"),
                           backend=backend)
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
        per_phase = {"transfer": 0.0,
                     "interleave": totals["interleave"] / w,
                     "decode": totals["decode"] / w,
                     "deinterleave": totals["deinterleave"] / w}
        frames_decoded = done * f
        results.append(BenchResult(
            n=code.n, m=code.m, schedule=decoder_config.schedule,
            backend=backend_name, w=w, f=f,
            iterations=decoder_config.max_iterations, repeat=rep,
            frames_decoded=frames_decoded, wall_time=wall,
            throughput_mbps=frames_decoded * code.n / wall / 1e6,
            per_phase=per_phase))
    return results


def median_throughput(results: list[BenchResult]) -> float:
    return float(np.median([r.throughput_mbps for r in results]))


def _point_llrs(code, gen, ch, messages, start, count, noiseless):
    """LLR block (count, n) of the encoded messages[start:start + count]."""
    block = np.empty((count, code.n), dtype=np.float64)
    for j in range(count):
        cw = gen.encode(messages[start + j])
        if noiseless:
            block[j] = 4.0 * (1.0 - 2.0 * cw.astype(np.float64))
        else:
            y = transmit(ch, modulate_bpsk(cw), frame_index=start + j)
            block[j] = llr_from_channel(ch, y)
    return block


def run_ber(code: ParityCheckCode, decoder_config: DecoderConfig,
            ebno_list: list[float], frames: int, seed: int = 0,
            f: int = 32, all_zeros: bool = False, noiseless: bool = False,
            backend: str | None = None) -> list[BerResult]:
    """Monte-Carlo BER/FER sweep over Eb/N0 points.

    Errors are counted on message positions only (k bits per frame).  The
    same message draw and the same standard-normal noise stream are reused
    across Eb/N0 points so curves differ only through the noise scale.
    """
    if not ebno_list:
        raise ValueError("ebno_list must be non-empty")
    if frames < 1:
        raise ValueError("frames must be >= 1")
    gen = systematic_form(code)
    k = gen.k
    rate = k / code.n
    mrng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E)))
    if all_zeros:
        messages = np.zeros((frames, k), dtype=np.uint8)
    else:
        messages = mrng.integers(0, 2, size=(frames, k), dtype=np.uint8)

    out = []
    for ebno in ebno_list:
        ch = AwgnChannel(float(ebno), rate, seed=seed)
        bit_errors = 0
        frame_errors = 0
        for start in range(0, frames, f):
            count = min(f, frames - start)
            block = _point_llrs(code, gen, ch, messages, start, count, noiseless)
            outcome = decode_batch(code, interleave(block), decoder_config,
                                   backend=backend)
            errs = np.count_nonzero(outcome.bits[:, gen.message_columns]
                                    != messages[start:start + count], axis=1)
            bit_errors += int(errs.sum())
            frame_errors += int(np.count_nonzero(errs))
        out.append(BerResult(
            ebno_db=float(ebno), frames=frames, bit_errors=bit_errors,
            frame_errors=frame_errors, ber=bit_errors / (frames * k),
            fer=frame_errors / frames))
    return out


def run_compare_schedules(code: ParityCheckCode, ebno_list: list[float],
                          frames: int, max_iterations: int = 10,
                          seed: int = 0, f: int = 32,
                          normalization: float = 1.0, llr_clamp: float = 64.0,
                          backend: str | None = None) -> list[CompareResult]:
    """Mean iterations-to-convergence, flooding vs layered, shared noise.

    Both schedules decode identical LLR realizations (all-zeros codeword
    methodology) with early termination on; frames that never converge
    count as max_iterations.
    """
    if not ebno_list:
        raise ValueError("ebno_list must be non-empty")
    if frames < 1:
        raise ValueError("frames must be >= 1")
    gen = systematic_form(code)
    rate = gen.k / code.n
    sym = modulate_bpsk(np.zeros(code.n, dtype=np.uint8))
    configs = {
        s: DecoderConfig(schedule=s, max_iterations=max_iterations,
                         early_termination=True, normalization=normalization,
                         llr_clamp=llr_clamp)
        for s in ("flooding", "layered")
    }
    out = []
    for ebno in ebno_list:
        ch = AwgnChannel(float(ebno), rate, seed=seed)
        iters = {s: [] for s in configs}
        converged = {s: 0 for s in configs}
        for start in range(0, frames, f):
            count = min(f, frames - start)
            block = np.stack([
                llr_from_channel(ch, transmit(ch, sym, frame_index=start + j))
                for j in range(count)])
            lanes = interleave(block)
            for s, cfg in configs.items():
                outcome = decode_batch(code, lanes, cfg, backend=backend)
                iters[s].append(np.where(outcome.syndrome_ok, outcome.iterations,
                                         max_iterations))
                converged[s] += int(np.count_nonzero(outcome.syndrome_ok))
        out.append(CompareResult(
            ebno_db=float(ebno), frames=frames,
            mean_iters_flooding=float(np.mean(np.concatenate(iters["flooding"]))),
            mean_iters_layered=float(np.mean(np.concatenate(iters["layered"]))),
            converged_flooding=converged["flooding"],
            converged_layered=converged["layered"]))
    return out
