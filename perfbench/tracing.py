"""In-memory span recording around streamdec's public entry points.

A ``Tracer`` swaps each traced function for a wrapper that records one
span per call: name, start, end, parent span, thread and job id.  The
wrappers live only inside ``Tracer.installed()``; on exit every patched
attribute gets its original object back.  Spans stay in memory and are
written out by the caller when the run ends.

Job ids tie the spans of one engine job together: the submit and
collect wrappers read the id from the job or the result, and the
``job_hook`` (called by the engine at the start of each job, in the
worker thread) sets it for every span that worker records until its
next job.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from contextlib import contextmanager

# (span name, defining module, function): each function is patched in every
# streamdec module that binds it, so calls through any import path are traced.
MODULE_FUNCTIONS = (
    ("batch.interleave", "streamdec.batch", "interleave"),
    ("batch.decode_batch", "streamdec.batch", "decode_batch"),
    ("batch.materialize", "streamdec.batch", "_materialize"),  # private; skipped when absent
    ("channel.transmit", "streamdec.channel", "transmit"),
    ("channel.llr", "streamdec.channel", "llr_from_channel"),
    ("code.systematic_form", "streamdec.code", "systematic_form"),
    ("bench.run_ber", "streamdec.bench", "run_ber"),
)


class Span:
    __slots__ = ("sid", "name", "t0", "t1", "parent", "job", "thread", "info")

    def __init__(self, sid, name, t0, t1, parent, job, thread, info):
        self.sid, self.name, self.t0, self.t1 = sid, name, t0, t1
        self.parent, self.job, self.thread, self.info = parent, job, thread, info

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.t0,
                "end": self.t1, "parent": self.parent, "job": self.job,
                "thread": self.thread, "info": self.info}


def _kernel_info(args, result):
    """Exact counts from a kernel call: lanes, sweeps run, converged lanes."""
    code, llr = args[0], args[1]
    iters, ok = result[1], result[2]
    return {"lanes": int(llr.shape[1]), "edges": int(code.edge_count),
            "n": int(code.n), "sweeps": int(iters.max()),
            "iterations_sum": int(iters.sum()), "converged": int(ok.sum())}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def set_job(self, job):
        """Label the calling thread's following spans with ``job``."""
        self._tls.job = job

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, name, fn, info=None, job_of=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            job = job_of(args) if job_of else getattr(tracer._tls, "job", None)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            tracer.spans.append(Span(
                sid, name, t0, t1, parent, job, threading.current_thread().name,
                info(args, result) if info else None))
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def job_hook(self, job_id):
        """Engine ``job_hook``: marks the job's start in its worker thread."""
        self._tls.job = job_id
        t = time.perf_counter()
        self.spans.append(Span(next(self._ids), "engine.job_start", t, t, None,
                               job_id, threading.current_thread().name, None))

    def _wrap_collect(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced_collect(engine):
            it = fn(engine)
            while True:
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                t1 = time.perf_counter()
                tracer.spans.append(Span(
                    next(tracer._ids), "engine.collect", t0, t1, None, item[0],
                    threading.current_thread().name, None))
                yield item

        traced_collect.__wrapped_by_tracer__ = True
        return traced_collect

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "streamdec"
                                   or mod_name.startswith("streamdec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    @contextmanager
    def installed(self):
        """Patch the traced entry points; restore the originals on exit."""
        from streamdec import backend, code
        from streamdec.engine import Engine

        if self._patches:
            raise RuntimeError("tracer is already installed")
        try:
            for name, home, attr in MODULE_FUNCTIONS:
                original = getattr(importlib.import_module(home), attr, None)
                if original is not None:
                    self._patch_everywhere(original, self.wrap(name, original))
            kernels = backend.get_kernels()
            for schedule in ("flooding", "layered"):
                attr = f"decode_{schedule}"
                self._patch(kernels, attr, self.wrap(
                    f"kernel.decode_{schedule}", getattr(kernels, attr),
                    info=_kernel_info))
            self._patch(code.GeneratorForm, "encode",
                        self.wrap("code.encode", code.GeneratorForm.encode))
            self._patch(Engine, "submit", self.wrap(
                "engine.submit", Engine.submit, job_of=lambda a: a[1].job_id,
                info=lambda a, r: {"accepted": bool(r.accepted)}))
            self._patch(Engine, "collect", self._wrap_collect(Engine.collect))
            yield self
        finally:
            self.uninstall()

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def _child_time(self) -> dict:
        """Span id -> summed duration of its direct children.

        Children run inside their parent on the same thread, so a span's
        self time is its duration minus this sum.
        """
        child = {}
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.duration
        return child

    def self_times(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        child = self._child_time()
        out = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.duration
            row["self_s"] += s.duration - child.get(s.sid, 0.0)
        return out

    def self_durations(self, name) -> list:
        child = self._child_time()
        return [s.duration - child.get(s.sid, 0.0) for s in self.by_name(name)]

    def by_name(self, *names) -> list[Span]:
        return [s for s in self.spans if s.name in names]


def is_traced(obj) -> bool:
    return getattr(obj, "__wrapped_by_tracer__", False)
