"""Per-layer metrics of a traced run.

Layers are streamdec's modules.  Engine phase busy time comes from
``Engine.phase_totals()``; everything else comes from the spans the
tracer recorded during the traced main phase.  A layer that a workload
does not exercise reads 0 on that workload.
"""

from __future__ import annotations

import numpy as np

from workloads import EngineWorkload, ms, percentile

KERNEL_SPANS = ("kernel.decode_flooding", "kernel.decode_layered")
BYTES_PER_EDGE_LANE = 32  # message and posterior, float64, read and written


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def kernel_metrics(tracer) -> dict:
    """Kernel time per batch, plus exact counts and computed work."""
    spans = tracer.by_name(*KERNEL_SPANS)
    if not spans:
        raise RuntimeError("the traced phase made no kernel call")
    durations = [s.duration for s in spans]
    updates = [s.info["sweeps"] * 2 * s.info["edges"] * s.info["lanes"] for s in spans]
    lanes = sum(s.info["lanes"] for s in spans)
    first = spans[0].info
    return {
        "kernel.decode_ms_p50": percentile([ms(d) for d in durations], 50),
        "kernel.decode_ms_p90": percentile([ms(d) for d in durations], 90),
        "kernel.edge_updates": _mean(updates),
        "kernel.edge_updates_per_s": sum(updates) / sum(durations),
        "kernel.bytes_per_iteration": float(
            BYTES_PER_EDGE_LANE * first["edges"] * first["lanes"]),
        "kernel.iterations_mean": sum(s.info["iterations_sum"] for s in spans) / lanes,
        "kernel.converged_fraction": sum(s.info["converged"] for s in spans) / lanes,
    }


def engine_metrics(phase, tracer) -> dict:
    """Queue wait, service time, blocking, busy share and job counts."""
    starts = {s.job: s for s in tracer.by_name("engine.job_start")}
    submits = {s.job: s for s in tracer.by_name("engine.submit")}
    collects = {s.job: s for s in tracer.by_name("engine.collect")}
    waits = [ms(starts[j].t0 - submits[j].t1) for j in starts if j in submits]
    service = [ms(collects[j].t1 - starts[j].t0) for j in starts if j in collects]

    # a job keeps its worker busy from its start to its worker's last span
    last_end = {}
    for s in tracer.spans:
        if s.job in starts and s.thread == starts[s.job].thread:
            last_end[s.job] = max(last_end.get(s.job, s.t1), s.t1)
    busy = {}
    for j, s in starts.items():
        busy[s.thread] = busy.get(s.thread, 0.0) + last_end[j] - s.t0

    totals = phase.totals
    batches = max(totals.get("batches", 0), 1)
    kernel_ms = _mean([ms(s.duration) for s in tracer.by_name(*KERNEL_SPANS)])
    summary = phase.summary
    accepted = sum(r.accepted for r in phase.records)
    out = {
        "batch.interleave_ms": ms(totals["interleave"] / batches),
        "batch.materialize_ms": ms(totals["deinterleave"] / batches),
        "decoder.validate_ms": ms(totals["decode"] / batches) - kernel_ms,
        "engine.submit_block_ms": _mean([ms(s.duration) for s in submits.values()]),
        "engine.queue_wait_ms_p50": percentile(waits, 50),
        "engine.queue_wait_ms_p90": percentile(waits, 90),
        "engine.service_ms_p50": percentile(service, 50),
        "engine.service_ms_p90": percentile(service, 90),
        "engine.accepted": float(summary.accepted if summary else accepted),
        "engine.completed": float(summary.completed if summary else len(phase.completed)),
        "engine.cancelled": float(summary.cancelled if summary else 0),
        "engine.rejected": float(len(phase.records) - accepted),
    }
    for i in range(phase.w):
        out[f"engine.busy_fraction_s{i}"] = busy.get(f"streamdec-w{i}", 0.0) / phase.wall
    return out


def ber_metrics(phase, tracer) -> dict:
    """Channel, encode and run_ber self time per call; batch layer per batch."""
    calls = max(len(phase.records), 1)
    st = tracer.self_times()

    def per_call(name):
        return st.get(name, {"self_s": 0.0})["self_s"] / calls

    def mean_ms(name):
        return _mean([ms(s.duration) for s in tracer.by_name(name)])

    return {
        "code.encode_s": per_call("code.encode"),
        "channel.transmit_s": per_call("channel.transmit"),
        "channel.llr_s": per_call("channel.llr"),
        "bench.error_count_s": per_call("bench.run_ber"),
        "batch.interleave_ms": mean_ms("batch.interleave"),
        "batch.materialize_ms": mean_ms("batch.materialize"),
        "decoder.validate_ms": ms(_mean(tracer.self_durations("batch.decode_batch"))),
    }


def per_layer(workload, setup, phase, tracer) -> dict:
    """Every per-layer metric; layers the workload does not use read 0."""
    out = {
        "code.build_s": setup["build_s"],
        "code.systematic_form_s": setup["systematic_form_s"],
        "code.encode_s": 0.0, "channel.transmit_s": 0.0, "channel.llr_s": 0.0,
        "bench.error_count_s": 0.0,
        "engine.submit_block_ms": 0.0, "engine.busy_fraction_s0": 0.0,
        "engine.busy_fraction_s1": 0.0,
        "engine.queue_wait_ms_p50": 0.0, "engine.queue_wait_ms_p90": 0.0,
        "engine.service_ms_p50": 0.0, "engine.service_ms_p90": 0.0,
        "engine.accepted": 0.0, "engine.completed": 0.0, "engine.cancelled": 0.0,
        "engine.rejected": 0.0,
    }
    out.update(kernel_metrics(tracer))
    if isinstance(workload, EngineWorkload):
        out.update(engine_metrics(phase, tracer))
    else:
        out.update(ber_metrics(phase, tracer))
    return out
