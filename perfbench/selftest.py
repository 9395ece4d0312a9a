"""Self-tests of the benchmark harness (not of streamdec itself).

    python3 perfbench/selftest.py          # plain runner, exit 1 on failure
    python3 -m pytest -q perfbench/selftest.py

They check that a failing job is counted instead of hanging the run,
that tracing changes no output and leaves nothing patched, that inputs
depend on the seed alone, that the reference outputs still match the
pinned ones, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_streamdec()

import numpy as np  # noqa: E402

import streamdec as sd  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def test_failing_job_is_counted_not_hung():
    """One job raising in the worker: the run ends on time with one failure.

    The engine's shutdown() raises after a worker failure and collect()
    then never returns; the harness must record both and move on.
    """
    code = sd.random_regular_code(24, 12, 6, 0)
    cfg = sd.DecoderConfig(schedule="flooding", max_iterations=2)
    stream_cfg = sd.StreamConfig(w=2, f=4, queue_depth=2)
    bad = {}

    def hook(job_id):
        if bad.setdefault("id", job_id + 3) == job_id:
            raise RuntimeError("injected failure")

    session = W.EngineSession(code, cfg, stream_cfg, job_hook=hook)
    payloads = [np.random.default_rng(s).normal(0.0, 4.0, size=(4, 24)) for s in range(3)]
    refs = [W.outcome_digest(sd.decode_batch(code, sd.interleave(p), cfg)) for p in payloads]
    t0 = time.perf_counter()
    phase = W.drive_engine(session, payloads, seconds=0.3)
    elapsed = time.perf_counter() - t0
    attempted, failed = W.check_engine_phase(phase, refs)
    assert attempted > 3
    assert failed == 1, (attempted, failed)
    assert any("injected failure" in e for e in phase.errors), phase.errors
    assert elapsed < 0.3 + W.AFTER_FAILURE_S + 5.0, elapsed


def _untraced_attributes():
    from streamdec import backend, code, engine
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "streamdec" or name.startswith("streamdec."))]
    owners += [backend.get_kernels(), code.GeneratorForm, engine.Engine]
    return [(o, a) for o in owners for a, v in vars(o).items() if tracing.is_traced(v)]


def _digests_by_payload(phases):
    out = {}
    for phase in phases.values():
        if isinstance(phase, W.EnginePhase):
            for r in phase.completed:
                out.setdefault(r.payload, set()).add(phase.collected[r.job_id][0])
        else:
            for pick, _, _, counts in phase.records:
                out.setdefault(pick, set()).add(json.dumps(counts))
    return out


def test_tracing_changes_no_output_and_unpatches():
    for name, wl in W.WORKLOADS.items():
        code, _ = wl.setup_once()
        ref = wl.reference(code, seed=7)
        plain, a0, f0 = wl.measure(code, ref, 0.5, only_main=True)
        tracer = tracing.Tracer()
        traced, a1, f1 = wl.measure(code, ref, 0.5, only_main=True, tracer=tracer)
        assert f0 == f1 == 0 and a0 > 0 and a1 > 0, (name, a0, f0, a1, f1)
        assert tracer.spans, name
        d0, d1 = _digests_by_payload(plain), _digests_by_payload(traced)
        for pick in set(d0) & set(d1):
            assert d0[pick] == d1[pick] and len(d0[pick]) == 1, (name, pick)
        assert not _untraced_attributes(), _untraced_attributes()


def test_inputs_depend_on_seed_only():
    for wl in W.WORKLOADS.values():
        if isinstance(wl, W.EngineWorkload):
            a, b, c = wl.payloads(3), wl.payloads(3), wl.payloads(4)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
            assert not np.array_equal(a[0], c[0])
        else:
            assert wl.call_seeds(3) == wl.call_seeds(3) != wl.call_seeds(4)


def test_reference_matches_pins():
    pins = json.loads(run.PINNED.read_text())["workloads"]
    for name, wl in W.WORKLOADS.items():
        code, _ = wl.setup_once()
        ref = wl.reference(code, run.DEFAULT_SEED)
        got = {k: v for k, v in ref.items() if k in ("digests", "counts", "seeds")}
        assert run.pin_failures(ref, pins[name]) == 0, (name, got)


def test_refuses_to_run_without_sources():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        p = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                            "stream-flooding", "--seconds", "1"], cwd=bare,
                           capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def main():
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            t0 = time.perf_counter()
            try:
                fn()
                status = "PASS"
            except AssertionError as exc:
                status, failures = f"FAIL {exc!r}", failures + 1
            print(f"{status:4s} {name} ({time.perf_counter() - t0:.1f} s)", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
