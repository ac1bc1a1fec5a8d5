"""Admission queue: coalesce concurrent requests into micro-batches.

The serve tier's throughput comes from executing *batches* — the SoA
scheduling engine and the vectorized ECM tier amortize planning and
table construction across lanes, and cross-request deduplication only
helps when identical requests are in flight together.  A
:class:`MicroBatcher` makes that happen for independent clients by
**group commit**: the moment the drain thread is free it takes every
pending request, up to :attr:`~MicroBatcher.max_batch`, as one batch.
Requests that arrive while a batch executes queue up and form the next
batch.  No timer is involved: an idle server dispatches a lone request
at once, while a loaded server executes ever larger batches at
near-constant per-batch cost.

``max_batch=1`` degenerates to strict one-request-at-a-time execution
— the serve benchmark's naive baseline uses exactly that, so the
measured speedup isolates batching + shared caches rather than
transport differences.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from typing import Callable, Sequence

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Single-consumer micro-batching queue in front of an executor.

    *execute* is called with a list of submitted items and must return
    one result per item, in order; each result resolves the matching
    :class:`~concurrent.futures.Future` returned by :meth:`submit`.
    An exception from *execute* fails every future of that batch (one
    poisoned batch never wedges the drain loop).
    """

    def __init__(self, execute: Callable[[list], Sequence], *,
                 max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._execute = execute
        self.max_batch = max_batch
        self._pending: deque[tuple[object, Future]] = deque()
        self._cond = threading.Condition()
        self._running = False
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the drain thread (idempotent)."""
        with self._cond:
            if self._running:
                return
            self._running = True
        self._thread = threading.Thread(
            target=self._drain, name="repro-serve-batcher", daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Drain remaining requests, then stop the thread."""
        with self._cond:
            if not self._running:
                return
            self._running = False
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "MicroBatcher":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def submit(self, item: object) -> Future:
        """Enqueue one item; the future resolves when its batch ran."""
        fut: Future = Future()
        with self._cond:
            if not self._running:
                raise RuntimeError("MicroBatcher is not running")
            self._pending.append((item, fut))
            self._cond.notify()
        return fut

    # ------------------------------------------------------------------
    def _collect(self) -> list[tuple[object, Future]] | None:
        """Block for the next batch; None when stopped and drained."""
        with self._cond:
            while self._running and not self._pending:
                self._cond.wait()
            if not self._pending:
                return None  # stopped with nothing left
            take = min(len(self._pending), self.max_batch)
            return [self._pending.popleft() for _ in range(take)]

    def _drain(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            items = [item for item, _fut in batch]
            try:
                results = self._execute(items)
                if len(results) != len(items):
                    raise RuntimeError(
                        f"batch executor returned {len(results)} results "
                        f"for {len(items)} items"
                    )
            except BaseException as exc:
                for _item, fut in batch:
                    fut.set_exception(exc)
                continue
            for (_item, fut), result in zip(batch, results):
                fut.set_result(result)
