"""The prediction server: cross-request batching over shared caches.

A :class:`PredictionServer` is the long-running counterpart of the
one-shot CLIs: it keeps the process-wide schedule cache
(:mod:`repro.engine.cache`), compile cache
(:mod:`repro.compilers.cache`) and ECM memos warm across requests, and
coalesces concurrent requests through a
:class:`~repro.serve.queue.MicroBatcher` so they execute as *one*
batch (whatever is pending when the previous batch finishes; there is
no batching timer):

* identical requests (same content fingerprint,
  :attr:`~repro.serve.protocol.PredictRequest.key`) **deduplicate** —
  one execution answers all of them;
* engine-tier requests run as one SoA batch
  (:func:`repro.engine.batch.schedule_batch`; sharded across a process
  pool via :func:`repro.engine.shard.schedule_batch_sharded` when the
  server was started with ``workers > 1``);
* ECM-tier requests evaluate as one vectorized array program per
  thread count (:func:`repro.ecm.batch.predict_batch`);
* every response records its provenance — whether the answer was
  already resident in this process before the batch ran (``cache``),
  whether the request coalesced onto an identical in-flight request
  (``deduped``), and how many requests its micro-batch carried
  (``batched_with``).

Warm path: each (kernel, toolchain) compiles through
:func:`repro.compilers.cache.compile_kernel`, which finds a warm
compilation by its remembered compile key, so a repeated question
neither rebuilds nor re-hashes the kernel's loop IR.

Bit-exactness: the batched paths carry the engine's equivalence
contract, so a served response is float-for-float identical to calling
:func:`repro.engine.scheduler.schedule_on` /
:func:`repro.ecm.model.predict_compiled` directly — including replays
answered from the warm caches (``tests/serve/test_golden.py``).

``naive=True`` builds the benchmark baseline: one-request-at-a-time
execution with **no** cross-request reuse (private compilation, the
frozen seed scheduler of :mod:`repro.engine._reference`, uncached), so
``repro serve-bench`` measures what the serving architecture adds and
checks its answers against an independent oracle.

Frontends: :func:`serve_stdio` speaks the line protocol over
stdin/stdout; :class:`TcpFrontend` serves a local socket with one
handler thread per connection, all feeding the same admission queue —
which is what makes cross-*client* batching happen.

Worker pools: with ``workers > 1`` the server probes a process pool at
startup.  Where fork is unavailable the probe emits the same
:class:`~repro.engine.sweep.PoolDowngradeWarning` as the sweep runner,
downgrades batch sharding to threads, and records the effective mode in
the session stats (and :func:`~repro.engine.sweep.last_effective_mode`).
"""

from __future__ import annotations

import json
import sys
import threading
import warnings
from collections import OrderedDict
from concurrent.futures import Future
from queue import SimpleQueue

from repro.serve.protocol import (
    PROTOCOL_FORMAT,
    PredictRequest,
    ProtocolError,
    error_response,
    parse_request,
    predict_response,
)
from repro.serve.queue import MicroBatcher

__all__ = [
    "PredictionServer",
    "TcpFrontend",
    "reset_session_stats",
    "serve_stdio",
    "session_stats",
]


# ----------------------------------------------------------------------
# serve-session statistics (process-wide; `repro cache show --json` and
# the {"op": "stats"} control request both report them)
_STATS_LOCK = threading.Lock()


def _fresh_stats() -> dict:
    return {
        "requests": 0,          # predict requests admitted
        "ok": 0,                # successful predict responses
        "errors": 0,            # protocol + execution errors
        "batches": 0,           # micro-batches executed
        "batched_requests": 0,  # predict requests carried by batches
        "max_batch": 0,         # largest micro-batch seen
        "deduped": 0,           # requests answered by an identical twin
        "cache_hits": 0,        # answers resident before their batch ran
        "cache_misses": 0,
        "pool_mode": None,      # serial | thread | process (last server)
        "workers": 0,
    }


_STATS = _fresh_stats()


def session_stats() -> dict:
    """Snapshot of the serve-session counters (plain dict copy)."""
    with _STATS_LOCK:
        return dict(_STATS)


def reset_session_stats() -> dict:
    """Zero the serve-session counters; returns the previous snapshot."""
    global _STATS
    with _STATS_LOCK:
        old, _STATS = _STATS, _fresh_stats()
    return old


def _bump(**deltas) -> None:
    with _STATS_LOCK:
        for name, delta in deltas.items():
            _STATS[name] += delta


def _probe_task() -> int:
    """No-op shipped to the worker-pool probe (top-level: picklable)."""
    return 42


class _Unique:
    """One deduplicated unit of work inside a micro-batch."""

    __slots__ = ("req", "idxs", "compiled", "march", "system",
                 "cache_label", "req_idx", "row", "error")

    def __init__(self, req: PredictRequest, idxs: list[int]) -> None:
        self.req = req
        self.idxs = idxs
        self.compiled = None
        self.march = None
        self.system = None
        self.cache_label = "miss"
        self.req_idx = -1
        self.row: dict | None = None
        self.error: str | None = None


class PredictionServer:
    """Micro-batching prediction daemon over the process-wide caches.

    ``max_batch`` caps the admission queue's micro-batches (a batch is
    whatever is pending when the drain thread is free); ``workers > 1``
    shards engine-tier batch simulation across a process pool (probed
    at :meth:`start`); ``naive=True`` degenerates to
    one-request-at-a-time execution with no cross-request reuse — the
    serve benchmark's baseline.

    Use as a context manager, or :meth:`start`/:meth:`stop` explicitly.
    In-process clients call :meth:`request` (synchronous) or
    :meth:`submit_line`; network/stdio clients go through
    :class:`TcpFrontend` / :func:`serve_stdio`.
    """

    def __init__(self, *, max_batch: int = 64, workers: int | None = None,
                 naive: bool = False) -> None:
        self.naive = naive
        self.workers = workers or 1
        self._pool_mode = "serial"
        self._batcher = MicroBatcher(self._execute_batch,
                                     max_batch=1 if naive else max_batch)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Probe the worker pool (if any) and start the batch drain."""
        if self.workers > 1 and not self.naive:
            self._pool_mode = self._probe_pool()
        else:
            self._pool_mode = "serial"
        with _STATS_LOCK:
            _STATS["pool_mode"] = self._pool_mode
            _STATS["workers"] = self.workers
        self._batcher.start()

    def stop(self) -> None:
        """Drain pending requests and stop the batch thread."""
        self._batcher.stop()

    def __enter__(self) -> "PredictionServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _probe_pool(self) -> str:
        """Confirm a process pool actually works before relying on it.

        Emits :class:`~repro.engine.sweep.PoolDowngradeWarning` (the
        same signal the sweep runner uses) and falls back to thread
        sharding when the pool cannot be created *or* its workers die
        at first use; the effective mode lands in
        :func:`~repro.engine.sweep.last_effective_mode` and the session
        stats either way.
        """
        from repro.engine.sweep import (
            PoolDowngradeWarning,
            _make_pool,
            _set_effective_mode,
        )

        pool, effective = _make_pool("process", 1)
        with pool:
            if effective == "process":
                try:
                    pool.submit(_probe_task).result(timeout=60)
                except Exception as exc:
                    warnings.warn(
                        f"process pool workers unusable ({exc}); "
                        "serve batches will shard over threads",
                        PoolDowngradeWarning, stacklevel=3,
                    )
                    effective = "thread"
        _set_effective_mode(effective)
        return effective

    # ------------------------------------------------------------------
    def submit_line(self, line: str) -> tuple[Future, str]:
        """Admit one protocol line; returns ``(future, op)``.

        The future resolves to the response document.  Control
        operations (``stats``/``ping``/``shutdown``) and protocol
        errors resolve immediately; predict requests resolve when
        their micro-batch executes.  ``op`` lets frontends react to
        ``"shutdown"`` without re-parsing the line.
        """
        try:
            parsed = parse_request(line)
        except ProtocolError as exc:
            _bump(errors=1)
            try:
                doc = json.loads(line)
                request_id = doc.get("id") if isinstance(doc, dict) else None
            except ValueError:
                request_id = None
            return _resolved(error_response(str(exc), request_id)), "error"
        if isinstance(parsed, str):
            if parsed == "stats":
                body = {"format": PROTOCOL_FORMAT, "ok": True,
                        "op": "stats", "stats": session_stats()}
            else:  # ping / shutdown just acknowledge
                body = {"format": PROTOCOL_FORMAT, "ok": True, "op": parsed}
            return _resolved(body), parsed
        _bump(requests=1)
        return self._batcher.submit(parsed), "predict"

    def request(self, doc: "dict | str") -> dict:
        """Synchronous convenience: one request in, one response out."""
        line = doc if isinstance(doc, str) else json.dumps(doc)
        fut, _op = self.submit_line(line)
        return fut.result()

    # ------------------------------------------------------------------
    def _execute_batch(self, items: list[PredictRequest]) -> list[dict]:
        try:
            if self.naive:
                return self._run_naive(items)
            return self._run_batched(items)
        except Exception as exc:  # keep one bad batch from wedging serve
            _bump(errors=len(items), batches=1, batched_requests=len(items))
            return [error_response(f"internal error: {exc}", it.id)
                    for it in items]

    def _run_batched(self, items: list[PredictRequest]) -> list[dict]:
        from repro.compilers.cache import compile_kernel
        from repro.compilers.toolchains import get_toolchain
        from repro.ecm.batch import predict_batch
        from repro.engine.batch import schedule_batch
        from repro.engine.cache import (
            get_cache,
            march_fingerprint,
            stream_fingerprint,
        )
        from repro.engine.shard import schedule_batch_sharded
        from repro.machine.microarch import A64FX, SKYLAKE_6140
        from repro.machine.systems import get_system
        from repro.perf.profile import default_system_for

        n = len(items)
        groups: OrderedDict[tuple, list[int]] = OrderedDict()
        for i, req in enumerate(items):
            groups.setdefault(req.key, []).append(i)
        uniques = [_Unique(items[idxs[0]], idxs)
                   for idxs in groups.values()]

        # Phase 1: compile every unique combo (content-cached; a warm
        # combo is found by its remembered key without rebuilding IR),
        # recording residency *before* any execution so "cache: hit"
        # uniformly means "resident in this process before this batch".
        scache = get_cache()
        compiled_of: dict[tuple[str, str], tuple] = {}
        for u in uniques:
            req = u.req
            try:
                combo = (req.kernel, req.toolchain)
                hit = compiled_of.get(combo)
                if hit is None:
                    tc = get_toolchain(req.toolchain)
                    march = SKYLAKE_6140 if tc.target == "x86" else A64FX
                    compiled, resident = compile_kernel(req.kernel, tc, march)
                    hit = compiled_of[combo] = (compiled, march, resident)
                u.compiled, u.march, compile_resident = hit
                if req.tier == "ecm":
                    u.system = get_system(
                        req.system or default_system_for(req.toolchain))
                    u.cache_label = "hit" if compile_resident else "miss"
                else:
                    win = (u.march.window if req.window is None
                           else req.window)
                    key = (march_fingerprint(u.march, win),
                           stream_fingerprint(u.compiled.stream))
                    u.cache_label = "hit" if scache.peek(key) else "miss"
            except Exception as exc:
                u.error = str(exc)

        # Phase 2: one schedule batch for every live unique — the
        # default-window request behind cycles_per_element plus the
        # windowed request for engine-tier answers (mirrors the batched
        # sweep path, so cache statistics stay identical to a sweep).
        requests: list[tuple] = []
        results: list = []
        for u in uniques:
            if u.error is not None:
                continue
            u.req_idx = len(requests)
            requests.append((u.march, u.compiled.stream))
            if u.req.tier == "engine":
                requests.append((u.march, u.compiled.stream, u.req.window))
        if requests:
            if self._pool_mode in ("process", "thread"):
                results = schedule_batch_sharded(
                    requests, max_workers=self.workers,
                    mode=self._pool_mode,
                )
            else:
                results = schedule_batch(requests)

        # Phase 3: compose rows; ECM uniques vectorize per thread count.
        ecm_groups: OrderedDict[int, list[_Unique]] = OrderedDict()
        for u in uniques:
            if u.error is not None:
                continue
            req = u.req
            u.compiled.__dict__["schedule"] = results[u.req_idx]
            u.row = {
                "loop": req.kernel,
                "toolchain": u.compiled.toolchain.name,
                "march": u.march.name,
                "window": (req.window if req.window is not None
                           else u.march.window),
                "tier": req.tier,
                "model_cycles_per_element": u.compiled.cycles_per_element,
            }
            if req.tier == "ecm":
                u.row["system"] = u.system.name
                u.row["threads"] = req.threads
                ecm_groups.setdefault(req.threads, []).append(u)
                continue
            sched = results[u.req_idx + 1]
            u.row.update({
                "cycles_per_iter": sched.cycles_per_iter,
                "cycles_per_element": sched.cycles_per_element,
                "ipc": sched.ipc,
                "bound": sched.bound,
            })
        for threads, members in ecm_groups.items():
            preds = predict_batch(
                [(u.compiled, u.system, u.req.window) for u in members],
                active_cores_per_domain=threads,
            )
            for u, pred in zip(members, preds):
                u.row.update({
                    "cycles_per_iter": pred.cycles_per_iter,
                    "cycles_per_element": pred.cycles_per_element,
                    "ipc": pred.incore.n_instrs / pred.cycles_per_iter,
                    "bound": pred.bound,
                })

        # Phase 4: fan results back out to every admitted request.
        out: list[dict | None] = [None] * n
        n_ok = n_err = n_hit = 0
        for u in uniques:
            for j, i in enumerate(u.idxs):
                if u.error is not None:
                    out[i] = error_response(u.error, items[i].id)
                    n_err += 1
                    continue
                out[i] = predict_response(items[i], dict(u.row), {
                    "cache": u.cache_label,
                    "deduped": j > 0,
                    "batched_with": n,
                })
                n_ok += 1
                n_hit += u.cache_label == "hit"
        with _STATS_LOCK:
            _STATS["ok"] += n_ok
            _STATS["errors"] += n_err
            _STATS["batches"] += 1
            _STATS["batched_requests"] += n
            _STATS["max_batch"] = max(_STATS["max_batch"], n)
            _STATS["deduped"] += n - len(uniques)
            _STATS["cache_hits"] += n_hit
            _STATS["cache_misses"] += n_ok - n_hit
        return out  # type: ignore[return-value]

    def _run_naive(self, items: list[PredictRequest]) -> list[dict]:
        """Baseline execution: no batching, no cross-request reuse.

        Every request pays a private compilation and an uncached
        prediction — what a stateless one-shot process would do.
        Engine schedules come from the frozen seed scheduler
        (:class:`~repro.engine._reference.ReferenceScheduler`), so the
        serve benchmark's equivalence gate checks served answers against
        an oracle that does not share the engine under test; answers are
        bit-identical, so the speedup isolates the serving architecture,
        not answer drift.
        """
        from repro.compilers.codegen import compile_loop
        from repro.compilers.toolchains import get_toolchain
        from repro.ecm.model import predict_compiled
        from repro.engine._reference import ReferenceScheduler
        from repro.kernels.catalog import build_kernel
        from repro.machine.microarch import A64FX, SKYLAKE_6140
        from repro.machine.systems import get_system
        from repro.perf.profile import default_system_for

        out = []
        n_ok = n_err = 0
        for req in items:
            try:
                tc = get_toolchain(req.toolchain)
                march = SKYLAKE_6140 if tc.target == "x86" else A64FX
                compiled = compile_loop(build_kernel(req.kernel), tc, march)
                compiled.__dict__["schedule"] = ReferenceScheduler(
                    march).steady_state(compiled.stream)
                row = {
                    "loop": req.kernel,
                    "toolchain": tc.name,
                    "march": march.name,
                    "window": (req.window if req.window is not None
                               else march.window),
                    "tier": req.tier,
                    "model_cycles_per_element": compiled.cycles_per_element,
                }
                if req.tier == "ecm":
                    system = get_system(
                        req.system or default_system_for(req.toolchain))
                    pred = predict_compiled(
                        compiled, system, window=req.window,
                        active_cores_per_domain=req.threads,
                    )
                    row.update({
                        "system": system.name,
                        "threads": req.threads,
                        "cycles_per_iter": pred.cycles_per_iter,
                        "cycles_per_element": pred.cycles_per_element,
                        "ipc": pred.incore.n_instrs / pred.cycles_per_iter,
                        "bound": pred.bound,
                    })
                else:
                    sched = ReferenceScheduler(
                        march, req.window).steady_state(compiled.stream)
                    row.update({
                        "cycles_per_iter": sched.cycles_per_iter,
                        "cycles_per_element": sched.cycles_per_element,
                        "ipc": sched.ipc,
                        "bound": sched.bound,
                    })
                out.append(predict_response(req, row, {
                    "cache": "miss", "deduped": False, "batched_with": 1,
                }))
                n_ok += 1
            except Exception as exc:
                out.append(error_response(str(exc), req.id))
                n_err += 1
        with _STATS_LOCK:
            _STATS["ok"] += n_ok
            _STATS["errors"] += n_err
            _STATS["batches"] += 1
            _STATS["batched_requests"] += len(items)
            _STATS["max_batch"] = max(_STATS["max_batch"], len(items))
            _STATS["cache_misses"] += n_ok
        return out


def _resolved(doc: dict) -> Future:
    fut: Future = Future()
    fut.set_result(doc)
    return fut


# ----------------------------------------------------------------------
def serve_stdio(server: PredictionServer, in_stream=None,
                out_stream=None) -> int:
    """Speak the line protocol over stdio (or any line iterables).

    Requests are admitted as they are read — responses come back in
    submission order but later lines join earlier lines' micro-batches,
    so even a piped file of requests gets cross-request batching.
    Stops at EOF or after answering ``{"op": "shutdown"}``.
    """
    in_stream = sys.stdin if in_stream is None else in_stream
    out_stream = sys.stdout if out_stream is None else out_stream
    pending: SimpleQueue = SimpleQueue()

    def _writer() -> None:
        while True:
            fut = pending.get()
            if fut is None:
                return
            try:
                doc = fut.result()
            except Exception as exc:  # pragma: no cover - defensive
                doc = error_response(f"internal error: {exc}")
            out_stream.write(json.dumps(doc) + "\n")
            out_stream.flush()

    writer = threading.Thread(target=_writer, name="repro-serve-stdio",
                              daemon=True)
    writer.start()
    for line in in_stream:
        if not line.strip():
            continue
        fut, op = server.submit_line(line)
        pending.put(fut)
        if op == "shutdown":
            break
    pending.put(None)
    writer.join()
    return 0


class TcpFrontend:
    """Serve the line protocol on a local TCP socket.

    One handler thread per connection, all submitting into the same
    server — concurrent clients coalesce into shared micro-batches.
    Binding port 0 picks a free port; :attr:`address` reports the bound
    ``(host, port)``.  A ``{"op": "shutdown"}`` from any client is
    answered, then sets :attr:`shutdown_event` (``wait()`` on it from
    the daemon's main thread).
    """

    def __init__(self, server: PredictionServer, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        import socket

        self.server = server
        self._sock = socket.create_server((host, port))
        self._sock.settimeout(0.2)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self.shutdown_event = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: list[threading.Thread] = []

    def start(self) -> None:
        """Start accepting connections (returns immediately)."""
        if self._accept_thread is not None:
            return
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True,
        )
        self._accept_thread.start()

    def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        self.shutdown_event.set()
        if self._accept_thread is not None:
            self._accept_thread.join()
            self._accept_thread = None
        for t in self._conn_threads:
            t.join(timeout=5)
        self._sock.close()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until a client requests shutdown (or *timeout*)."""
        return self.shutdown_event.wait(timeout)

    def __enter__(self) -> "TcpFrontend":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        import socket

        while not self.shutdown_event.is_set():
            try:
                conn, _peer = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(
                target=self._handle, args=(conn,),
                name="repro-serve-conn", daemon=True,
            )
            t.start()
            # forget finished handlers so a long-lived daemon keeps one
            # entry per *open* connection, not per connection ever made
            self._conn_threads = [c for c in self._conn_threads
                                  if c.is_alive()]
            self._conn_threads.append(t)

    def _handle(self, conn) -> None:
        with conn:
            rf = conn.makefile("r", encoding="utf-8")
            wf = conn.makefile("w", encoding="utf-8")
            for line in rf:
                if not line.strip():
                    continue
                fut, op = self.server.submit_line(line)
                try:
                    doc = fut.result()
                except Exception as exc:  # pragma: no cover - defensive
                    doc = error_response(f"internal error: {exc}")
                try:
                    wf.write(json.dumps(doc) + "\n")
                    wf.flush()
                except OSError:
                    return  # client went away mid-response
                if op == "shutdown":
                    self.shutdown_event.set()
                    return
