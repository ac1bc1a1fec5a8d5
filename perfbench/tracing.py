"""Span tracing installed from outside the program.

The benchmark never edits ``src/``: it times each layer by replacing the
layer's public functions with thin wrappers, in every module that holds
a reference to them (a name imported with ``from x import f`` is looked
up in the importing module, so patching only the defining module would
miss it).  Each wrapper records one span per call:

    [name, t0, t1, parent, self_s, rid, items, id]

``parent`` is the id of the enclosing span on the same thread (-1 for a
root); ``self_s`` is the span's duration minus the time its child
spans cover (children on one thread are sequential and nested, so that
is the sum of their durations).  ``rid`` ties spans to one serve
request.  Spans stay in memory and are written out once, by
:meth:`Recorder.dump`, when the traced process ends.

Timestamps are ``time.monotonic()`` (CLOCK_MONOTONIC), which is shared
by every process on the host, so a client and a traced daemon can line
up their records.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# (span name, module, attribute or Class.method) -- one row per wrapped
# public entry point.  Several rows may share a span name.
LAYERS = (
    ("kernels.catalog.build_kernel", "repro.kernels.catalog", "build_kernel"),
    ("compilers.cache.compile_key", "repro.compilers.cache", "compile_key"),
    ("compilers.cache.cached_compile", "repro.compilers.cache",
     "cached_compile"),
    ("compilers.codegen.compile_loop", "repro.compilers.codegen",
     "compile_loop"),
    ("engine.cache.fingerprint", "repro.engine.cache", "march_fingerprint"),
    ("engine.cache.fingerprint", "repro.engine.cache", "stream_fingerprint"),
    ("engine.batch.schedule_batch", "repro.engine.batch", "schedule_batch"),
    ("engine.shard.schedule_batch_sharded", "repro.engine.shard",
     "schedule_batch_sharded"),
    ("engine.scheduler.schedule_on", "repro.engine.scheduler", "schedule_on"),
    ("engine.sweep.run_sweep", "repro.engine.sweep", "run_sweep"),
    ("ecm.batch.predict_batch", "repro.ecm.batch", "predict_batch"),
    ("ecm.model.predict_compiled", "repro.ecm.model", "predict_compiled"),
    ("machine.spec.build", "repro.machine.spec", "MachineSpec.build_core"),
    ("machine.spec.build", "repro.machine.spec", "MachineSpec.build_system"),
    ("machine.grid.compile_for_machines", "repro.machine.grid",
     "compile_for_machines"),
    ("kernels.workload", "repro.kernels.workload", "serial_seconds"),
    ("kernels.workload", "repro.kernels.workload", "parallel_run"),
    ("hpcc", "repro.hpcc.dgemm", "dgemm_rate_gflops"),
    ("hpcc", "repro.hpcc.hpl", "hpl_rate_gflops"),
    ("hpcc", "repro.hpcc.fft", "fft_rate_gflops"),
)

# every public function defined in these modules becomes one span name
MODULE_LAYERS = (("bench.figures", "repro.bench.figures"),)

# span names whose calls carry a work-item count (len of first argument)
ITEM_COUNTED = ("engine.batch.schedule_batch",
                "engine.shard.schedule_batch_sharded",
                "ecm.batch.predict_batch")


class Recorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.marks: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_rid(self):
        return getattr(self._local, "rid", None)

    def set_rid(self, rid) -> None:
        self._local.rid = rid

    def begin(self, name: str, rid=None, items: int = 0) -> list:
        stack = self._stack()
        frame = [next(self._ids), name, time.monotonic(),
                 stack[-1][0] if stack else -1, 0.0,
                 self.current_rid() if rid is None else rid, items]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        t1 = time.monotonic()
        stack = self._stack()
        stack.pop()
        span_id, name, t0, parent, child_s, rid, items = frame
        dur = t1 - t0
        if stack:
            stack[-1][4] += dur
        self.spans.append([name, t0, t1, parent, dur - child_s, rid, items,
                           span_id])

    def record(self, name: str, t0: float, t1: float, rid=None,
               items: int = 0) -> None:
        """A span measured by hand (e.g. a queue wait across threads)."""
        self.spans.append([name, t0, t1, -1, t1 - t0, rid, items,
                           next(self._ids)])

    def mark(self, **fields) -> None:
        self.marks.append({"t": time.monotonic(), **fields})

    def wrap(self, name: str, fn, counted: bool = False):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = len(args[0]) if counted and args else 0
            frame = rec.begin(name, items=items)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end(frame)

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "marks": self.marks}, fh)


def _replace_everywhere(orig, replacement) -> None:
    """Point every ``repro`` module global that *is* ``orig`` at the
    replacement, so callers that imported the name see the wrapper."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)


def install(rec: Recorder, extra_modules: tuple[str, ...] = ()) -> None:
    """Import every traced layer and wrap its entry points."""
    modules = ({m for _n, m, _a in LAYERS} | {m for _n, m in MODULE_LAYERS}
               | set(extra_modules))
    for module in sorted(modules):
        importlib.import_module(module)
    for name, module, attr in LAYERS:
        mod = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, rec.wrap(name, getattr(cls, meth)))
        else:
            orig = getattr(mod, attr)
            _replace_everywhere(orig, rec.wrap(name, orig,
                                               name in ITEM_COUNTED))
    for name, module in MODULE_LAYERS:
        mod = sys.modules[module]
        for attr, value in list(vars(mod).items()):
            if (callable(value) and not attr.startswith("_")
                    and getattr(value, "__module__", None) == module
                    and not isinstance(value, type)):
                _replace_everywhere(value, rec.wrap(name, value))
    _install_shard_plan(rec)


def _install_shard_plan(rec: Recorder) -> None:
    """Record ``last_shard_plan()`` after every sharded batch."""
    from repro.engine import shard

    sharded = shard.schedule_batch_sharded  # already the traced wrapper

    @functools.wraps(sharded)
    def with_plan(*args, **kwargs):
        try:
            return sharded(*args, **kwargs)
        finally:
            plan = shard.last_shard_plan() or {}
            rec.mark(kind="shard", workers=plan.get("workers", 0),
                     jobs=plan.get("jobs", 0))

    _replace_everywhere(sharded, with_plan)


def cache_stats() -> dict:
    """Schedule- and compile-cache statistics of this process."""
    from repro.compilers.cache import get_compile_cache
    from repro.engine.cache import get_cache

    return {"schedule": get_cache().stats(),
            "compile": get_compile_cache().stats()}
