"""Sharded batch scheduling: the SoA batch across a process pool.

:func:`repro.engine.batch.schedule_batch` deduplicates a sweep's
requests into unique lanes but still simulates them on one core.
:func:`schedule_batch_sharded` runs the *same* plan with the simulation
phase split into contiguous per-worker shards on a
:class:`~concurrent.futures.ProcessPoolExecutor`:

* the **plan** phase (validation, content fingerprints, dedup, schedule
  -cache prefetch) runs in the caller;
* each worker simulates its shard of unique lanes with the identical
  ``_Lane`` array program — per-lane results are independent, and the
  vectorized finalization is element-wise, so a per-shard finalize
  equals the whole-batch finalize float for float.  With
  ``REPRO_CACHE_DIR`` set, workers share precompiled timing/dependency
  tables through the disk layer of :mod:`repro.engine.batch` instead of
  re-deriving them;
* the **completion** phase (cache stores, observer dispatch, counter
  and ``schedule_cache.*`` emissions) runs back in the caller in
  request submission order.

Because every stateful step happens in the caller in the same sequence
as the serial batch, the results, counter totals and cache statistics
are **bit-identical** to :func:`~repro.engine.batch.schedule_batch` —
and to the per-point scheduler (``tests/engine/test_shard.py`` and the
grid fuzz lane enforce both).

Profitability routing: forking a pool and rebuilding per-worker tables
costs tens of milliseconds, so tiny batches or starved pools are a net
loss — ``schedule_batch_sharded`` therefore routes through
:func:`plan_shards` and silently runs the serial batch path when the
effective worker count or the unique-lane count falls below the
:data:`SHARD_MIN_JOBS`/:data:`SHARD_MIN_JOBS_PER_WORKER` thresholds
(``max_workers=None`` additionally caps workers at the CPU count — a
1-core "pool" can only lose).  The decision every call actually took is
reported by :func:`last_shard_plan` and recorded in the ``grid`` tier
of ``BENCH_engine.json``, so a small-pool deployment can never
misread pool overhead as a sharding speedup regression.

Where process pools are unavailable the pool downgrade of
:mod:`repro.engine.sweep` applies: a
:class:`~repro.engine.sweep.PoolDowngradeWarning` is emitted, threads
are used instead, and :func:`~repro.engine.sweep.last_effective_mode`
reports what actually ran.  A divergent lane raises the same
:class:`~repro.engine.scheduler.ScheduleDivergence` as the in-process
batch (the exception pickles by field across the pool boundary).
"""

from __future__ import annotations

import os
import threading
from typing import Sequence

from repro.engine.batch import (
    _complete_batch,
    _plan_batch,
    _plan_jobs,
    _simulate_jobs,
)
from repro.engine.scheduler import ScheduleResult
from repro.engine.sweep import _make_pool, _set_effective_mode

__all__ = [
    "SHARD_MODES",
    "SHARD_MIN_JOBS",
    "SHARD_MIN_JOBS_PER_WORKER",
    "last_shard_plan",
    "plan_shards",
    "schedule_batch_sharded",
]

#: executor modes :func:`schedule_batch_sharded` accepts
SHARD_MODES = ("serial", "thread", "process")

#: below this many unique lanes the batch always runs serially — the
#: pool spin-up alone outweighs simulating a handful of lanes
SHARD_MIN_JOBS = 4

#: in auto mode (``max_workers=None``) workers are capped so each shard
#: carries at least this many unique lanes; an explicit ``max_workers``
#: is an opt-in and bypasses this cap (tests and benchmarks rely on
#: forcing a pool on any machine)
SHARD_MIN_JOBS_PER_WORKER = 8

_LAST_PLAN = threading.local()


def last_shard_plan() -> dict | None:
    """Routing decision of the calling thread's last sharded batch.

    A dict with ``routing`` (``"serial"`` or ``"sharded"``),
    ``workers`` (effective worker count) and ``jobs`` (unique-lane
    count after deduplication); ``None`` before any sharded batch ran
    on this thread.  ``repro bench --tier grid`` records this in the
    ``grid.shard`` payload so the sharded-vs-serial comparison is only
    scored when sharding actually ran.
    """
    return getattr(_LAST_PLAN, "value", None)


def _set_shard_plan(routing: str, workers: int, jobs: int) -> None:
    _LAST_PLAN.value = {"routing": routing, "workers": workers,
                        "jobs": jobs}


def plan_shards(n_jobs: int, max_workers: int | None = None) -> tuple[str, int]:
    """Profitability routing for a prospective sharded batch.

    Returns ``(routing, workers)`` where ``routing`` is ``"serial"`` or
    ``"sharded"`` and ``workers`` is the effective worker count the
    sharded path would use.  The serial route is chosen when fewer than
    :data:`SHARD_MIN_JOBS` unique lanes are pending or the effective
    worker count collapses to one; with ``max_workers=None`` the worker
    count is additionally capped by the CPU count and by
    :data:`SHARD_MIN_JOBS_PER_WORKER` lanes per shard, so small pools
    (and 1-core machines) fall back to the serial batch instead of
    paying pool overhead for no parallelism.
    """
    if n_jobs < 1:
        return "serial", 1
    if max_workers is None:
        cores = os.cpu_count() or 1
        workers = min(cores, max(1, n_jobs // SHARD_MIN_JOBS_PER_WORKER))
    else:
        workers = max(1, max_workers)
    workers = min(workers, n_jobs)
    if workers < 2 or n_jobs < SHARD_MIN_JOBS:
        return "serial", 1
    return "sharded", workers


def _simulate_shard(payload: tuple) -> list:
    """Worker entry point: simulate one shard of unique lanes.

    Top-level (picklable) and free of process-global side effects —
    the schedule cache, observers and counters are only touched by the
    parent's completion phase.
    """
    jobs, record, n_iters = payload
    return _simulate_jobs(jobs, record, n_iters)


def schedule_batch_sharded(
    requests: Sequence[tuple],
    *,
    cache: bool = True,
    max_workers: int | None = None,
    mode: str = "process",
) -> list[ScheduleResult]:
    """:func:`~repro.engine.batch.schedule_batch`, simulation sharded.

    Identical request grammar, identical results, counters and cache
    statistics — only the wall time of the unique-lane simulation
    changes.  Routing is decided by :func:`plan_shards`:
    ``max_workers=None`` uses the CPU count capped to
    :data:`SHARD_MIN_JOBS_PER_WORKER` lanes per shard, an explicit
    ``max_workers`` forces that many workers (still bounded by the
    unique-lane count); batches below the profitability thresholds run
    the serial batch path in-process.  ``mode="serial"`` forces that,
    ``mode="thread"`` uses a thread pool (useful under profilers or
    where fork is unavailable).  :func:`last_shard_plan` reports the
    decision taken.
    """
    if mode not in SHARD_MODES:
        raise ValueError(f"mode must be one of {SHARD_MODES}, got {mode!r}")
    if not requests:
        return []
    plan = _plan_batch(requests, cache)
    jobs = _plan_jobs(plan)
    routing, workers = plan_shards(len(jobs), max_workers)
    if mode == "serial" or routing == "serial":
        _set_shard_plan("serial", 1, len(jobs))
        _set_effective_mode("serial")
        sim_out = _simulate_jobs(jobs, plan.record, plan.n_iters)
        return _complete_batch(plan, sim_out)

    _set_shard_plan("sharded", workers, len(jobs))
    size = (len(jobs) + workers - 1) // workers
    shards = [jobs[s:s + size] for s in range(0, len(jobs), size)]
    pool, effective = _make_pool(mode, workers)
    _set_effective_mode(effective)
    with pool:
        futures = [
            pool.submit(_simulate_shard, (shard, plan.record, plan.n_iters))
            for shard in shards
        ]
        sim_out = [item for fut in futures for item in fut.result()]
    return _complete_batch(plan, sim_out)
