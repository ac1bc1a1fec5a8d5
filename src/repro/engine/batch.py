"""Batched structure-of-arrays scheduling engine: the one simulator.

Every schedule in the reproduction runs here.  The lane simulator
(:class:`_Lane`) implements the issue model stated in
:mod:`repro.engine.scheduler`; :class:`~repro.engine.scheduler.PipelineScheduler`
runs one lane, :func:`~repro.engine.scheduler.schedule_on` is a
one-request :func:`schedule_batch`, and sweeps schedule whole batches:

* **precompiled int-indexed tables** — per (march, body) the latencies,
  reciprocal throughputs, pipe-candidate sets and dataflow edges are
  resolved once into flat integer-indexed lists (:class:`_StreamTables`,
  LRU-cached), so the inner loop never hashes an enum or re-derives a
  dependency edge;
* **event-driven lanes** — ready/waiting heaps plus per-pipe free times
  replace a per-cycle window scan, and idle cycles are skipped by a
  stall-horizon jump;
* **steady-state period detection** — once the relative schedule state
  (issue offsets and pipe backlogs modulo the current cycle) repeats
  between iterations, the lane fast-forwards whole periods and
  resimulates only the tail, instead of grinding through all
  ``WARMUP_ITERS + MEASURE_ITERS`` iterations;
* **class-partitioned ready heaps** — ready instructions are grouped by
  pipe-candidate class; once a class has no pipe free this cycle it is
  skipped wholesale instead of re-popping and re-blocking each member;
* **content-addressed deduplication** — requests with identical
  (march, stream, window) fingerprints simulate once and fan results
  back out per request (different toolchains frequently emit identical
  streams for the same loop);
* **array-stepped lanes** — each unique point is a lane advanced in
  bounded super-steps under a numpy active mask; lanes whose period
  detection fires fast-forward and retire from the batch early, so one
  slow lane never serializes the rest;
* **vectorized finalization** — steady-state statistics for all lanes
  (cycles/iter, occupancy, makespan) are computed with numpy in one
  shot.

Exactness contract: a lane issues the *identical* dynamic instruction
sequence as the frozen seed scheduler in :mod:`repro.engine._reference`
— same issue cycles, same pipe choices (the pipe-candidate order of each
class is the canonical ``_canon_pipes`` order), hence the same
:class:`~repro.engine.scheduler.ScheduleResult` fields and ``pipeline.*``
counter payloads; and a lane's outcome does not depend on the batch it
runs in (``tests/engine/test_batch.py`` and
``tests/engine/test_golden_equivalence.py`` enforce both).

The schedule cache (:mod:`repro.engine.cache`) sits in front: batch
requests look up, store and re-emit cache entries and count
``schedule_cache.hits``/``misses``.  Deduplicated duplicate requests
behave like cache hits (replayed, not re-simulated, hence not
re-observed by schedule observers).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import replace
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.engine.scheduler import (
    _PIPES,
    _SCHEDULE_OBSERVERS,
    PipelineScheduler,
    ScheduleDivergence,
    ScheduleRecord,
    ScheduleResult,
    _dataflow_of,
    _timings_for,
    counter_payload,
)
from repro.machine.isa import Instruction, InstructionStream
from repro.machine.microarch import Microarch
from repro.perf.counters import emit, is_profiling

__all__ = ["schedule_batch", "clear_tables"]

_INF = float("inf")
_N_PIPES = len(_PIPES)
_PIPE_INDEX = {p: i for i, p in enumerate(_PIPES)}

#: cycle-loop passes one lane runs per super-step round before the
#: driver rotates to the next active lane
_STEP_BUDGET = 512


class _StreamTables:
    """Precompiled int-indexed tables for one (march, loop body).

    ``lat``/``rtp`` are per-body-position effective latency and
    reciprocal throughput (overrides resolved).  Positions are grouped
    into *pipe-candidate classes*: ``cls_of[pos]`` names the class and
    ``class_pipes[c]`` is the candidate pipe-id tuple, in the canonical
    ``_canon_pipes`` order the pipe choice walks — so tie-breaking
    between equally-free pipes is bit-identical on any hash seed and
    across process boundaries (shard workers rebuild the same tables
    from pickled requests).  ``deps``/``consumers`` come
    from the memoized static dataflow.
    """

    __slots__ = ("lat", "rtp", "cls_of", "class_pipes", "deps", "consumers")

    def __init__(self, march: Microarch,
                 body: tuple[Instruction, ...]) -> None:
        timings = _timings_for(march, body)
        self.deps, self.consumers = _dataflow_of(body)
        self.lat = [t[0] for t in timings]
        self.rtp = [t[1] for t in timings]
        class_ids: dict[tuple[int, ...], int] = {}
        cls_of: list[int] = []
        class_pipes: list[tuple[int, ...]] = []
        for _lat, _rtp, pipes in timings:
            key = tuple(_PIPE_INDEX[p] for p in pipes)
            c = class_ids.get(key)
            if c is None:
                c = len(class_pipes)
                class_ids[key] = c
                class_pipes.append(key)
            cls_of.append(c)
        self.cls_of = cls_of
        self.class_pipes = tuple(class_pipes)

    # -- JSON round-trip for the shared disk layer ---------------------
    def to_json(self) -> dict:
        """Serialize the precompiled tables (floats round-trip exactly)."""
        return {
            "format": TABLES_FORMAT,
            "lat": self.lat,
            "rtp": self.rtp,
            "cls_of": self.cls_of,
            "class_pipes": [list(c) for c in self.class_pipes],
            "deps": [[list(e) for e in d] for d in self.deps],
            "consumers": [[list(e) for e in d] for d in self.consumers],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "_StreamTables":
        """Rebuild tables persisted by :meth:`to_json`."""
        if doc.get("format") != TABLES_FORMAT:
            raise ValueError(f"unknown tables format {doc.get('format')!r}")
        self = cls.__new__(cls)
        self.lat = [float(v) for v in doc["lat"]]
        self.rtp = [float(v) for v in doc["rtp"]]
        self.cls_of = [int(v) for v in doc["cls_of"]]
        self.class_pipes = tuple(
            tuple(int(p) for p in c) for c in doc["class_pipes"])
        self.deps = tuple(
            tuple((int(p), int(d)) for p, d in dep) for dep in doc["deps"])
        self.consumers = tuple(
            tuple((int(p), int(d)) for p, d in con)
            for con in doc["consumers"])
        return self


#: LRU of precompiled tables, keyed by ``id(march)`` with the march
#: pinned in the value so the id cannot be recycled while the entry lives
_TABLES: OrderedDict[
    tuple[int, tuple[Instruction, ...]], tuple[Microarch, _StreamTables]
] = OrderedDict()
_TABLES_CAP = 512
_TABLES_LOCK = threading.Lock()

#: disk format of persisted precompiled tables (bump on layout changes)
TABLES_FORMAT = "repro.batch-tables/1"


def _tables_disk_dir() -> Path | None:
    """Where shard workers share precompiled tables (``REPRO_CACHE_DIR``)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    return Path(root) / "tables" if root else None


def _tables_disk_key(march: Microarch,
                     body: tuple[Instruction, ...]) -> str:
    """Content fingerprint of one table set (march timings + body)."""
    from repro.engine.cache import march_fingerprint

    # body-only digest (elements_per_iter does not shape the tables);
    # the march side reuses the schedule cache's fingerprint, which
    # already folds in the scheduler version and the full timing table
    body_rows = [
        (ins.op.value, ins.dest, list(ins.srcs), ins.carried,
         ins.latency_override, ins.rtput_override)
        for ins in body
    ]
    blob = json.dumps([TABLES_FORMAT, body_rows], separators=(",", ":"))
    return (march_fingerprint(march, 0)[:16] + "-"
            + hashlib.sha256(blob.encode()).hexdigest()[:32])


def _tables_for(march: Microarch,
                body: tuple[Instruction, ...]) -> _StreamTables:
    """Fetch (or build) the precompiled tables for (march, body).

    With ``REPRO_CACHE_DIR`` set, table sets are also persisted as
    versioned JSON so shard workers (and later processes) load them
    instead of re-deriving timings and dataflow edges; corrupt or
    stale-format files are silently rebuilt.
    """
    key = (id(march), body)
    with _TABLES_LOCK:
        hit = _TABLES.get(key)
        if hit is not None:
            _TABLES.move_to_end(key)
            return hit[1]
    disk_dir = _tables_disk_dir()
    path = (disk_dir / f"{_tables_disk_key(march, body)}.json"
            if disk_dir is not None else None)
    tables = None
    if path is not None:
        try:
            tables = _StreamTables.from_json(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError):
            tables = None
    if tables is None:
        tables = _StreamTables(march, body)
        if path is not None:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(f".tmp{os.getpid()}")
                tmp.write_text(json.dumps(tables.to_json(), sort_keys=True))
                tmp.replace(path)
            except OSError:  # pragma: no cover - read-only cache dir
                pass
    with _TABLES_LOCK:
        _TABLES[key] = (march, tables)
        _TABLES.move_to_end(key)
        while len(_TABLES) > _TABLES_CAP:
            _TABLES.popitem(last=False)
    return tables


def clear_tables() -> None:
    """Drop the precompiled batch tables (cold-path benchmarks).

    Pure cache: clearing changes nothing but the time the next batch
    takes to rebuild its tables.  ``benchmarks/engine_bench.py`` calls
    this (plus :func:`repro.engine.scheduler.clear_memos`) before cold
    timings so memo warm-up cannot flatter them.
    """
    with _TABLES_LOCK:
        _TABLES.clear()


# ----------------------------------------------------------------------
def _period_key(cycle, retire, rob_limit, n_body, issued, completion,
               pending, ready_acc, pipe_free):
    """Hashable relative state of a lane's in-flight window.

    Two simulation moments with equal keys evolve identically (up to
    a uniform shift of all times and dynamic indices): the key holds
    the retire offset within the body, the window extent, every pipe
    backlog relative to ``cycle``, and per in-flight instruction its
    issued flag plus completion/ready time relative to ``cycle``.
    Past times (<= cycle) are collapsed — they no longer influence
    issue decisions — except pipe backlogs, where the pipe choice
    breaks ties by comparing raw values: those are encoded by rank
    so the relative order (all that matters) must recur.
    """
    parts: list = [retire % n_body, rob_limit - retire]
    past: list[float] = []
    for pf in pipe_free:
        if pf <= cycle:
            past.append(pf)
    rank = {v: -1.0 - i for i, v in enumerate(sorted(set(past)))}
    for pf in pipe_free:
        parts.append(pf - cycle if pf > cycle else rank[pf])
    for d in range(retire, rob_limit):
        if issued[d]:
            c = completion[d]
            parts.append((1, c - cycle if c > cycle else 0.0))
        else:
            r = ready_acc[d]
            parts.append((0, pending[d], r - cycle if r > cycle else 0.0))
    return tuple(parts)


def _skip_periods(prior, k_iter, cycle, n_body, total, window, retire,
                  rob_limit, issued, completion, pending, ready_acc,
                  pipe_free, pipe_busy, pipe_touch, iter_last_issue,
                  waiting, heaps):
    """Skip whole steady-state periods by shifting the in-flight state.

    ``prior`` is an earlier snapshot with an identical relative state
    key; the schedule between the two is one period (``p`` iterations,
    ``D`` cycles).  The largest number of whole periods that keeps the
    tail clear of end-of-stream window clamping is skipped; the tail is
    then resimulated exactly, so end effects and the measured iteration
    endpoints stay bit-faithful.  The per-class ready heaps are shifted
    in place (a uniform +S shift preserves the heap property).  Returns
    the new ``(retire, entered, cycle, skipped_instructions)`` or None
    when no skip is admissible yet.
    """
    j_iter, c_j, busy_j = prior
    p = k_iter - j_iter
    D = cycle - c_j
    if p <= 0 or D <= 0.0:
        return None
    r0 = retire % n_body
    # last iteration the retire pointer may reach with the window still
    # fully inside the stream (no ROB end-clamping during or right after
    # the skipped span)
    limit_iter = (total - window - r0) // n_body - 1
    q = (limit_iter - k_iter) // p
    if q <= 0:
        return None
    m = q * p
    S = m * n_body
    T = q * D
    lo, hi = retire, rob_limit
    # shift the in-flight slice up by S dynamic instructions and T
    # cycles; times already in the past stay as-is (they only feed max()
    # accumulations and <=-cycle comparisons downstream)
    for d in range(hi - 1, lo - 1, -1):
        nd = d + S
        issued[nd] = issued[d]
        c = completion[d]
        completion[nd] = c + T if c > cycle else c
        pending[nd] = pending[d]
        r = ready_acc[d]
        ready_acc[nd] = r + T if r > cycle else r
    # the skipped span retires wholesale: issued, completed in the past
    for d in range(lo, lo + S):
        issued[d] = 1
        completion[d] = 0.0
    waiting[:] = [(r + T if r > cycle else r, d + S) for r, d in waiting]
    heapify(waiting)
    for h in heaps:
        if h:
            h[:] = [d + S for d in h]
    # pipes touched within the matched period keep shifting their
    # backlog; untouched pipes hold absolute (past) values
    for i in range(_N_PIPES):
        if pipe_touch[i] >= c_j:
            pipe_free[i] += T
            pipe_touch[i] += T
        pipe_busy[i] += q * (pipe_busy[i] - busy_j[i])
    hi_it = (hi - 1) // n_body
    for it in range(hi_it, k_iter - 1, -1):
        v = iter_last_issue[it]
        iter_last_issue[it + m] = v + T if v > 0.0 else 0.0
    return retire + S, hi + S, cycle + T, S


class _Lane:
    """One (march, stream, window) point being simulated in the batch.

    Carries the full in-flight simulation state, with pipes as integers
    (position in ``scheduler._PIPES``) and the ready heap partitioned by
    pipe-candidate class.  ``step`` advances up to a bounded number of
    cycle-loop passes so the batch driver can interleave lanes.
    ``record`` keeps the issue-event log in ``events`` (one
    ``(dynamic_index, cycle, pipe)`` per issue, in issue order) and,
    like ``extrapolate=False``, turns period detection off so every
    issue is simulated.
    """

    __slots__ = (
        "march", "stream", "window", "tables", "n_body", "total",
        "n_iters", "warmup", "issue_width", "completion", "issued",
        "pending", "ready_acc", "pipe_free", "pipe_busy", "pipe_touch",
        "iter_last_issue", "waiting", "heaps", "retire", "entered",
        "cycle", "remaining", "detect", "snapshots", "last_snap_iter",
        "events",
    )

    def __init__(self, march: Microarch, stream: InstructionStream,
                 window: int, tables: _StreamTables, record: bool,
                 n_iters: int, extrapolate: bool = True) -> None:
        self.march = march
        self.stream = stream
        self.window = window
        self.tables = tables
        n_body = len(stream)
        total = n_body * n_iters
        self.n_body = n_body
        self.total = total
        self.n_iters = n_iters
        self.warmup = PipelineScheduler.WARMUP_ITERS
        self.issue_width = march.issue_width
        self.completion = [_INF] * total
        self.issued = bytearray(total)
        self.pending = [0] * total
        self.ready_acc = [0.0] * total
        self.pipe_free = [0.0] * _N_PIPES
        self.pipe_busy = [0.0] * _N_PIPES
        self.pipe_touch = [-_INF] * _N_PIPES
        self.iter_last_issue = [0.0] * n_iters
        self.waiting: list[tuple[float, int]] = []
        self.heaps: list[list[int]] = [[] for _ in tables.class_pipes]
        self.retire = 0
        self.entered = 0
        self.cycle = 0.0
        self.remaining = total
        # recording (for schedule observers and traces) disables period
        # detection so every issue event is captured — identical
        # results, more work
        self.events: list | None = [] if record else None
        self.detect = extrapolate and not record and n_iters > self.warmup
        self.snapshots: dict = {}
        self.last_snap_iter = 0

    # ------------------------------------------------------------------
    def step(self, budget: int) -> bool:
        """Run up to *budget* cycle-loop passes; True once fully retired.

        Each pass: retire scan, window admission, period
        detection/fast-forward, waiting→ready promotion, then the greedy
        issue loop — oldest ready instruction first, onto the free pipe
        with the smallest backlog.  A pipe-candidate class with no pipe
        free this cycle is excluded wholesale (pipes only get busier
        within a cycle, so its members could never issue anyway).
        """
        tables = self.tables
        deps = tables.deps
        consumers = tables.consumers
        lats = tables.lat
        rtps = tables.rtp
        cls_of = tables.cls_of
        class_pipes = tables.class_pipes
        n_cls = len(class_pipes)
        n_body = self.n_body
        total = self.total
        window = self.window
        issue_width = self.issue_width
        completion = self.completion
        issued = self.issued
        pending = self.pending
        ready_acc = self.ready_acc
        pipe_free = self.pipe_free
        pipe_busy = self.pipe_busy
        pipe_touch = self.pipe_touch
        iter_last_issue = self.iter_last_issue
        waiting = self.waiting
        heaps = self.heaps
        retire = self.retire
        entered = self.entered
        cycle = self.cycle
        remaining = self.remaining
        detect = self.detect
        snapshots = self.snapshots
        last_snap_iter = self.last_snap_iter
        events = self.events
        warmup = self.warmup
        max_cycles = PipelineScheduler.MAX_CYCLES
        passes = 0

        while remaining and cycle < max_cycles and passes < budget:
            passes += 1
            while (retire < total and issued[retire]
                   and completion[retire] <= cycle):
                retire += 1
            rob_limit = retire + window
            if rob_limit > total:
                rob_limit = total

            # admit newly visible instructions into the window
            while entered < rob_limit:
                d = entered
                it, pos = divmod(d, n_body)
                pend = 0
                racc = 0.0
                for ppos, delta in deps[pos]:
                    sit = it - delta
                    if sit < 0:
                        continue
                    s = sit * n_body + ppos
                    if issued[s]:
                        c = completion[s]
                        if c > racc:
                            racc = c
                    else:
                        pend += 1
                pending[d] = pend
                ready_acc[d] = racc
                if pend == 0:
                    if racc <= cycle:
                        heappush(heaps[cls_of[pos]], d)
                    else:
                        heappush(waiting, (racc, d))
                entered += 1

            if detect:
                retire_iter = retire // n_body
                if retire_iter > last_snap_iter:
                    last_snap_iter = retire_iter
                    key = _period_key(
                        cycle, retire, rob_limit, n_body, issued,
                        completion, pending, ready_acc, pipe_free,
                    )
                    prior = snapshots.get(key)
                    if prior is None:
                        snapshots[key] = (retire_iter, cycle, pipe_busy[:])
                    elif retire_iter >= warmup:
                        skipped = _skip_periods(
                            prior, retire_iter, cycle, n_body, total,
                            window, retire, rob_limit, issued, completion,
                            pending, ready_acc, pipe_free, pipe_busy,
                            pipe_touch, iter_last_issue, waiting, heaps,
                        )
                        if skipped is not None:
                            retire, entered, cycle, dS = skipped
                            remaining -= dS
                            detect = False
                            continue

            # promote instructions whose ready time has arrived
            while waiting and waiting[0][0] <= cycle:
                d = heappop(waiting)[1]
                heappush(heaps[cls_of[d % n_body]], d)

            # classify non-empty classes: can anything of this class
            # issue this cycle?  (pre-filter only — the authoritative
            # check runs with current pipe state at selection time)
            limit = cycle + 1.0
            free_cls: list[int] = []
            blocked_cls: list[int] = []
            for c in range(n_cls):
                if heaps[c]:
                    for p in class_pipes[c]:
                        if pipe_free[p] < limit:
                            free_cls.append(c)
                            break
                    else:
                        blocked_cls.append(c)

            issued_now = 0
            progressed = False
            while free_cls and issued_now < issue_width:
                # oldest ready instruction among non-blocked classes
                best_c = free_cls[0]
                best_d = heaps[best_c][0]
                for c in free_cls[1:]:
                    hd = heaps[c][0]
                    if hd < best_d:
                        best_d = hd
                        best_c = c
                # smallest-backlog free pipe; the first in canonical
                # order wins ties
                best_p = -1
                best_f = limit
                for p in class_pipes[best_c]:
                    f = pipe_free[p]
                    if f < best_f:
                        best_f = f
                        best_p = p
                if best_p < 0:
                    free_cls.remove(best_c)
                    blocked_cls.append(best_c)
                    continue
                h = heaps[best_c]
                heappop(h)
                if not h:
                    free_cls.remove(best_c)
                d = best_d
                it, pos = divmod(d, n_body)
                issued[d] = 1
                comp = cycle + lats[pos]
                completion[d] = comp
                rtp = rtps[pos]
                pf = pipe_free[best_p]
                pipe_free[best_p] = (pf if pf > cycle else cycle) + rtp
                pipe_busy[best_p] += rtp
                pipe_touch[best_p] = cycle
                issued_now += 1
                remaining -= 1
                if cycle > iter_last_issue[it]:
                    iter_last_issue[it] = cycle
                progressed = True
                if events is not None:
                    events.append((d, cycle, _PIPES[best_p]))
                # wake consumers: pending drops, ready time accumulates
                for jpos, delta in consumers[pos]:
                    cons = (it + delta) * n_body + jpos
                    if cons >= entered or issued[cons]:
                        continue
                    if comp > ready_acc[cons]:
                        ready_acc[cons] = comp
                    pending[cons] -= 1
                    if pending[cons] == 0:
                        r = ready_acc[cons]
                        if r <= cycle:
                            cc = cls_of[jpos]
                            heappush(heaps[cc], cons)
                            if cc not in free_cls and cc not in blocked_cls:
                                for p in class_pipes[cc]:
                                    if pipe_free[p] < limit:
                                        free_cls.append(cc)
                                        break
                                else:
                                    blocked_cls.append(cc)
                        else:
                            heappush(waiting, (r, cons))

            if progressed:
                cycle += 1.0
            else:
                # stall horizon: the next cycle at which anything can
                # change — a stalled in-window instruction becoming
                # issueable (sources done AND a pipe freeing within the
                # cycle), or the ROB head retiring (widening the window);
                # instructions still waiting on un-issued producers have
                # an infinite ready bound and contribute nothing
                pts = [0.0] * n_cls
                for c in range(n_cls):
                    mn = _INF
                    for p in class_pipes[c]:
                        f = pipe_free[p]
                        if f < mn:
                            mn = f
                    pts[c] = mn - 1.0
                horizon = _INF
                for c in range(n_cls):
                    pt = pts[c]
                    for d in heaps[c]:
                        r = ready_acc[d]
                        t = pt if pt > r else r
                        if t < horizon:
                            horizon = t
                for r, d in waiting:
                    pt = pts[cls_of[d % n_body]]
                    t = pt if pt > r else r
                    if t < horizon:
                        horizon = t
                if retire < rob_limit and issued[retire]:
                    c = completion[retire]
                    if c < horizon:
                        horizon = c
                floor = cycle + 1.0
                if horizon == _INF:
                    horizon = floor
                cycle = horizon if horizon > floor else floor

        self.retire = retire
        self.entered = entered
        self.cycle = cycle
        self.remaining = remaining
        self.detect = detect
        self.last_snap_iter = last_snap_iter
        if remaining and cycle >= max_cycles:
            stuck = retire
            while stuck < total and issued[stuck]:
                stuck += 1
            raise ScheduleDivergence(self.stream, window, stuck, n_body)
        return remaining == 0


# ----------------------------------------------------------------------
def _run_lanes(lanes: list[_Lane]) -> None:
    """Advance all lanes to completion in bounded super-steps.

    A numpy bool mask tracks which lanes are still active; each round
    gives every active lane ``_STEP_BUDGET`` cycle-loop passes.  Lanes
    whose period detection fires fast-forward and drop out early, so the
    mask shrinks fast and a slow (non-periodic) lane never serializes
    the converged ones behind it.
    """
    if not lanes:
        return
    active = np.ones(len(lanes), dtype=bool)
    while True:
        idxs = np.flatnonzero(active)
        if idxs.size == 0:
            return
        for i in idxs:
            if lanes[i].step(_STEP_BUDGET):
                active[i] = False


def _finalize(lanes: list[_Lane]) -> list[tuple[ScheduleResult, dict]]:
    """Vectorized steady-state statistics for all retired lanes.

    One numpy pass computes every lane's cycles/iter (with the front-end
    bound), makespan and pipe occupancy.  cycles/iter is the mean issue
    span per measured iteration after ``WARMUP_ITERS``; utilization is
    taken against the true makespan (warmup included), so it stays in
    [0, 1] even when warmup is slower than steady state on tiny bodies.
    The arithmetic is elementwise float64, so a lane's statistics do not
    depend on the batch it ran in.  Lanes must have run at least
    ``WARMUP_ITERS + 1`` iterations.
    """
    if not lanes:
        return []
    n_iters = lanes[0].n_iters
    first = lanes[0].warmup
    last = n_iters - 1
    cycle_arr = np.array([ln.cycle for ln in lanes], dtype=np.float64)
    nbody = np.array([ln.n_body for ln in lanes], dtype=np.float64)
    width = np.array([ln.issue_width for ln in lanes], dtype=np.float64)
    busy = np.array([ln.pipe_busy for ln in lanes], dtype=np.float64)
    ili = np.array([ln.iter_last_issue for ln in lanes], dtype=np.float64)
    span = ili[:, last] - ili[:, first - 1]
    cpi = span / float(last - first + 1)
    cpi = np.maximum(cpi, nbody / width)  # front-end bound
    makespan = np.maximum(cycle_arr, 1.0)
    occ = np.minimum(1.0, busy / makespan[:, None])
    out: list[tuple[ScheduleResult, dict]] = []
    for i, lane in enumerate(lanes):
        cpi_i = float(cpi[i])
        mk = float(makespan[i])
        nb = lane.n_body
        occupancy = {p: float(occ[i, j]) for j, p in enumerate(_PIPES)}
        bound = PipelineScheduler._classify_bound(cpi_i, nb, occupancy)
        result = ScheduleResult(
            cycles_per_iter=cpi_i,
            elements_per_iter=lane.stream.elements_per_iter,
            instructions_per_iter=nb,
            ipc=nb / cpi_i if cpi_i else _INF,
            pipe_occupancy=occupancy,
            bound=bound,
            label=lane.stream.label,
        )
        busy_map = {p: float(busy[i, j]) for j, p in enumerate(_PIPES)}
        payload = counter_payload(
            lane.march, lane.stream, n_iters, nb * n_iters, mk, cpi_i,
            busy_map,
        )
        out.append((result, payload))
    return out


# ----------------------------------------------------------------------
class _BatchPlan:
    """Prepared batch: normalized requests, dedup map, cache prefetch.

    Produced by :func:`_plan_batch` and consumed by
    :func:`_complete_batch`; the jobs in between can be simulated
    in-process (:func:`_simulate_jobs`) or sharded across a process
    pool (:mod:`repro.engine.shard`) — the plan and completion phases
    run in the caller either way, so cache statistics and counter
    emissions are sequenced identically.
    """

    __slots__ = ("marches", "streams", "windows", "keys", "first_seen",
                 "entries", "job_keys", "cache_obj", "record", "n_iters")


def _plan_batch(requests: Sequence[tuple], cache: bool) -> _BatchPlan:
    """Validate, fingerprint, deduplicate and cache-prefetch *requests*."""
    from repro.engine.cache import (
        enabled,
        get_cache,
        march_fingerprint,
        stream_fingerprint,
    )

    plan = _BatchPlan()
    marches: list[Microarch] = []
    streams: list[InstructionStream] = []
    windows: list[int] = []
    for req in requests:
        march, stream, *rest = req
        window = rest[0] if rest and rest[0] is not None else march.window
        if window < 1:
            raise ValueError("window must be >= 1")
        if len(stream) == 0:
            raise ValueError("cannot schedule an empty instruction stream")
        stream.validate()
        marches.append(march)
        streams.append(stream)
        windows.append(window)

    mfp_memo: dict[tuple[int, int], str] = {}
    keys: list[tuple[str, str]] = []
    for march, stream, window in zip(marches, streams, windows):
        mk = (id(march), window)
        mfp = mfp_memo.get(mk)
        if mfp is None:
            mfp = march_fingerprint(march, window)
            mfp_memo[mk] = mfp
        keys.append((mfp, stream_fingerprint(stream)))

    cache_obj = get_cache() if (cache and enabled()) else None
    first_seen: dict[tuple[str, str], int] = {}
    entries: dict = {}
    job_keys: list[tuple[str, str]] = []
    for i, key in enumerate(keys):
        if key in first_seen:
            continue
        first_seen[key] = i
        if cache_obj is not None:
            entry = cache_obj.lookup(key)
            if entry is not None:
                entries[key] = entry
                continue
        job_keys.append(key)

    plan.marches = marches
    plan.streams = streams
    plan.windows = windows
    plan.keys = keys
    plan.first_seen = first_seen
    plan.entries = entries
    plan.job_keys = job_keys
    plan.cache_obj = cache_obj
    plan.record = bool(_SCHEDULE_OBSERVERS)
    plan.n_iters = (PipelineScheduler.WARMUP_ITERS
                    + PipelineScheduler.MEASURE_ITERS)
    return plan


def _plan_jobs(
    plan: _BatchPlan,
) -> list[tuple[Microarch, InstructionStream, int]]:
    """The unique (march, stream, window) points the plan must simulate."""
    out = []
    for key in plan.job_keys:
        i = plan.first_seen[key]
        out.append((plan.marches[i], plan.streams[i], plan.windows[i]))
    return out


def _simulate_jobs(
    jobs: list[tuple[Microarch, InstructionStream, int]],
    record: bool,
    n_iters: int,
    *,
    extrapolate: bool = True,
) -> list[tuple[ScheduleResult, dict, tuple | None]]:
    """Simulate unique jobs as one lane set; (result, payload, events).

    This is the only phase shard workers execute remotely; it touches
    no process-global state beyond the pure table memos, so running
    job subsets in separate processes composes to the same output.
    """
    lanes = [
        _Lane(march, stream, window,
              _tables_for(march, tuple(stream.body)), record, n_iters,
              extrapolate)
        for march, stream, window in jobs
    ]
    _run_lanes(lanes)
    return [
        (result, payload,
         tuple(lane.events) if lane.events is not None else None)
        for lane, (result, payload) in zip(lanes, _finalize(lanes))
    ]


def _complete_batch(
    plan: _BatchPlan,
    sim_out: list[tuple[ScheduleResult, dict, tuple | None]],
) -> list[ScheduleResult]:
    """Store, observe and emit — in request submission order."""
    from repro.engine.cache import _Entry

    cache_obj = plan.cache_obj
    streams = plan.streams
    simulated: dict[tuple[str, str], tuple[ScheduleResult, dict]] = {}
    for key, (result, payload, _events) in zip(plan.job_keys, sim_out):
        simulated[key] = (result, payload)
        if cache_obj is not None:
            entry = _Entry(result=replace(result, label=""),
                           counters=payload)
            cache_obj.store(key, entry)
            plan.entries[key] = entry
    if plan.record:
        observers = tuple(_SCHEDULE_OBSERVERS)
        for key, (result, _payload, events) in zip(plan.job_keys, sim_out):
            i = plan.first_seen[key]
            rec = ScheduleRecord(
                march=plan.marches[i], window=plan.windows[i],
                stream=streams[i], n_iters=plan.n_iters,
                issues=events, result=result,
            )
            for observer in observers:
                observer(rec)

    profiling = is_profiling()
    results: list[ScheduleResult] = []
    for i, key in enumerate(plan.keys):
        if cache_obj is not None:
            if i == plan.first_seen[key]:
                entry = plan.entries[key]
                fresh = key in simulated
            else:
                # duplicates hit the cache like a sequential run would,
                # so hit statistics stay identical
                entry = cache_obj.lookup(key) or plan.entries[key]
                fresh = False
            if profiling:
                emit("schedule_cache.misses" if fresh
                     else "schedule_cache.hits", 1.0)
                for name, value in entry.counters.items():
                    emit(name, value)
            results.append(replace(entry.result, label=streams[i].label))
        else:
            result, payload = simulated[key]
            if profiling:
                for name, value in payload.items():
                    emit(name, value)
            results.append(replace(result, label=streams[i].label))
    return results


def schedule_batch(
    requests: Sequence[tuple],
    *,
    cache: bool = True,
) -> list[ScheduleResult]:
    """Schedule many ``(march, stream[, window])`` points as one batch.

    Returns one :class:`~repro.engine.scheduler.ScheduleResult` per
    request, in request order.  Under an active
    :class:`~repro.perf.counters.ProfileScope` every request emits its
    ``pipeline.*`` counter payload (plus ``schedule_cache.hits`` or
    ``misses`` when cached), in request order; the process-wide cache's
    hit/miss statistics move exactly as one request at a time would
    move them.

    Content-identical requests are deduplicated: the point simulates
    once and duplicates replay the stored outcome (relabeled per
    request), exactly like cache hits — and, like cache hits, replays
    are not re-observed by schedule observers.

    :func:`repro.engine.shard.schedule_batch_sharded` runs the same
    plan with the simulation phase fanned out over a process pool.
    """
    if not requests:
        return []
    plan = _plan_batch(requests, cache)
    sim_out = _simulate_jobs(_plan_jobs(plan), plan.record, plan.n_iters)
    return _complete_batch(plan, sim_out)
