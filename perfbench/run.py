"""Seed-fixed benchmark of streamdec: engine throughput, streaming latency
and a BER sweep, with per-layer numbers from a separate traced run.

    python3 perfbench/run.py --workload tput-layered --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

It imports streamdec from ``src/`` of the checkout it sits in.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named
in BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A full report (host facts, set-up split, computed work
and, for traced runs, every span and each span's self time) goes to
``perfbench/out/``.  With ``--workload all`` each workload runs in a
child process of its own, so that its ``peak_rss_mb`` is its own.  See
perfbench/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINNED = HERE / "pinned.json"
OUT = HERE / "out"
DEFAULT_SEED = 0
CHILD_SETUP_S = 300  # a child's allowance beyond its measured seconds


def import_streamdec():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "streamdec" / "__init__.py").is_file():
        raise SystemExit(f"streamdec sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import streamdec
    if Path(streamdec.__file__).resolve().parent != SRC / "streamdec":
        raise SystemExit(f"imported streamdec from {streamdec.__file__}, not {SRC}")
    return streamdec


def git_revision():
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts(sd, np):
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": sd.active_backend(),
        "numba_available": sd.HAVE_NUMBA,
        "git_revision": git_revision(),
        "platform": platform.platform(),
    }


def contract():
    """Metric names and units promised by BENCHMARK.json, and its run length."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            spec["run_seconds"])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_pins(name, seed):
    if seed != DEFAULT_SEED or not PINNED.is_file():
        return None
    return json.loads(PINNED.read_text())["workloads"].get(name)


def pin_failures(ref, pins):
    """Reference entries that differ from the pinned ones (all if unpinned)."""
    key = "counts" if "counts" in ref else "digests"
    if pins is None:
        return len(ref[key])
    return sum(a != b for a, b in zip(ref[key], pins[key])) + abs(len(ref[key]) - len(pins[key]))


def computed_work(wl, code):
    """Work per batch computed from sizes, not measured."""
    import layers
    return {
        "edge_updates_per_batch_max": wl.iterations * 2 * code.edge_count * wl.f,
        "bytes_per_iteration": layers.BYTES_PER_EDGE_LANE * code.edge_count * wl.f,
        "note": "computed: iterations x 2E x F edge updates; 32 B per edge and lane "
                "(float64 message and posterior, each read and written once)",
    }


def run_workload(name, seed, seconds, trace):
    import numpy as np

    import layers
    import workloads as W
    from tracing import Tracer
    import streamdec as sd

    wl = W.WORKLOADS[name]
    cpus = sorted(os.sched_getaffinity(0))
    if getattr(wl, "one_cpu", False):  # threads started from here on inherit it
        cpus = cpus[:1]
        os.sched_setaffinity(0, cpus)
    code, setup = W.measure_setup(wl)
    ref = wl.reference(code, seed)
    pins = load_pins(name, seed)
    bad_pins = pin_failures(ref, pins) if seed == DEFAULT_SEED else 0
    if pins is not None:  # outputs must match the pinned values themselves
        ref = dict(ref, **{k: pins[k] for k in ("digests", "counts") if k in pins})

    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "host": host_facts(sd, np), "cpus_used": cpus, "setup": setup,
              "computed": computed_work(wl, code), "pinned_mismatches": bad_pins}
    if not trace:
        phases, attempted, failed = wl.measure(code, ref, seconds)
        metrics = wl.end_to_end(phases)
        metrics["setup_s"] = setup["setup_s"]
        ran = list(phases.values())
    else:
        base, a0, f0 = wl.measure(code, ref, seconds / 2, only_main=True)
        tracer = Tracer()
        traced, a1, f1 = wl.measure(code, ref, seconds / 2, only_main=True, tracer=tracer)
        attempted, failed = a0 + a1, f0 + f1
        metrics = layers.per_layer(wl, setup, traced["main"], tracer)
        before = wl.end_to_end(base)[wl.primary]
        after = wl.end_to_end(traced)[wl.primary]
        worse = (after - before) if "latency" in wl.primary else (before - after)
        metrics["trace.overhead_pct"] = 100.0 * worse / before if before else math.nan
        metrics["trace.spans"] = float(len(tracer.spans))
        report["trace_overhead"] = {"metric": wl.primary, "untraced": before,
                                    "traced": after}
        report["self_times"] = tracer.self_times()
        report["spans"] = [s.as_dict() for s in tracer.spans]
        ran = list(base.values()) + list(traced.values())
    errors = [e for p in ran for e in p.errors]
    failed += bad_pins
    attempted = max(attempted, 1)
    metrics["failed_fraction"] = failed / attempted
    metrics["peak_rss_mb"] = peak_rss_mb()
    report.update(attempted=attempted, failed=failed, errors=errors, metrics=metrics)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=str))
    return {"correct": failed == 0 and not errors, "attempted": attempted,
            "failed": failed, "metrics": metrics, "errors": errors}


def select(metrics, units):
    """The contract's metrics; a value that could not be measured reads 0
    and is returned among the names of the unmeasured ones."""
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    out, bad = {}, []
    for k, unit in units.items():
        value = float(metrics[k])
        if not math.isfinite(value):
            value = 0.0
            bad.append(k)
        out[k] = {"value": value, "unit": unit}
    return out, bad


def print_table(name, seed, res):
    print(f"# {name}  seed={seed}  attempted={res['attempted']}  "
          f"failed={res['failed']}  correct={res['correct']}")
    for k, m in res["metrics"].items():
        print(f"  {k:28s} {m['value']:14.6g} {m['unit']}")


def run_one(name, args, units):
    """Run one workload here; print its table; return its result."""
    res = run_workload(name, args.seed, args.seconds, bool(args.trace))
    res["metrics"], unmeasured = select(res["metrics"], units)
    if unmeasured:
        res["correct"] = False
        res["errors"].append(f"not measured: {unmeasured}")
    for err in res.pop("errors"):
        print(f"{name}: error: {err}", file=sys.stderr)
    print_table(name, args.seed, res)
    return res


def run_child(name, args):
    """Run one workload in a child process; forward its table; return its
    result, or a failed one if the child did not end well or in time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=CHILD_SETUP_S + 2 * args.seconds)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print(f"{name}: error: no result within the deadline", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    sys.stderr.write(p.stderr)
    lines = p.stdout.splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, ValueError):
        res = None
    if p.returncode != 0 or not isinstance(res, dict):
        print(f"{name}: error: exit code {p.returncode}, no result", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print("\n".join(lines[:-1]))
    return res


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="measured seconds per workload (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    e2e_units, layer_units, run_seconds = contract()
    args.seconds = args.seconds or run_seconds
    import_streamdec()
    sys.path.insert(0, str(HERE))
    import workloads as W

    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in W.WORKLOADS]
    if unknown:
        p.error(f"unknown workload {unknown[0]!r}; choose from {list(W.WORKLOADS)} or all")
    if len(names) == 1:
        final = run_one(names[0], args, layer_units if args.trace else e2e_units)
    else:
        results = {name: run_child(name, args) for name in names}
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}:{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
