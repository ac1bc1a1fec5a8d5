"""Content-addressed schedule cache: memoize simulated schedules.

Every figure/table sweep in the reproduction re-schedules the same
(kernel x toolchain x window) points over and over — and different
toolchains frequently emit *identical* instruction streams for the same
loop.  This module keys schedules on content, not identity:

* **march fingerprint** — the microarch name, issue width, effective
  window, and the full op timing table (so editing a latency invalidates
  every dependent schedule);
* **stream fingerprint** — the instruction body (op, dest, srcs,
  carried, overrides) and ``elements_per_iter``.  The stream *label* is
  deliberately excluded: labels embed the toolchain name, and two
  compilers emitting the same instructions must share one cache entry.
  On a hit the cached result is relabeled for the requesting stream.

:func:`~repro.engine.scheduler.schedule_on` and
:func:`~repro.engine.batch.schedule_batch` consult it (``cache=True``,
the default): the batch plan looks every request up before simulating
and stores each fresh outcome after.  The in-process layer is a
thread-safe LRU (:class:`ScheduleCache`); an opt-in on-disk layer
persists entries as versioned JSON under ``$REPRO_CACHE_DIR`` (or
``~/.cache/repro`` when enabled via :func:`configure`), surviving
across processes and sweep workers.

Cache hits must be observationally identical to cold runs: each entry
stores the schedule's ``pipeline.*`` counter payload, and a hit re-emits
it into every active :class:`~repro.perf.counters.ProfileScope`, so the
front-end slot identity (``issue_slots.total == used + stalled``) holds
exactly on the cached path too.  Hits and misses are themselves counted
under ``schedule_cache.*``.

Environment knobs
-----------------
``REPRO_CACHE_DIR``
    Enables the on-disk layer at the given directory.
``REPRO_SCHEDULE_CACHE=off``
    Disables caching entirely (every request recomputes).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.engine.scheduler import PipelineScheduler, ScheduleResult
from repro.machine.isa import InstructionStream, Pipe
from repro.machine.microarch import Microarch

__all__ = [
    "ScheduleCache",
    "configure",
    "enabled",
    "get_cache",
    "march_fingerprint",
    "stream_fingerprint",
]

#: bump to invalidate all persisted entries when scheduler semantics move
SCHEDULER_VERSION = 2
DISK_FORMAT = "repro.schedule-cache/1"

_PIPE_BY_VALUE = {p.value: p for p in Pipe}


#: identity-keyed fingerprint memos: content hashing walks the whole
#: timing table / instruction body, but marches are module singletons
#: and batched sweeps share one stream object across every window of a
#: combo, so (id, pinned-object) lookups make repeat fingerprints O(1);
#: the pinned object is compared with ``is`` to survive id recycling
_MARCH_FP: dict[tuple[int, int], tuple[Microarch, str]] = {}
_STREAM_FP: dict[int, tuple[InstructionStream, str]] = {}
_FP_MEMO_CAP = 4096


def march_fingerprint(march: Microarch, window: int) -> str:
    """Digest of everything about *march* that the scheduler reads."""
    hit = _MARCH_FP.get((id(march), window))
    if hit is not None and hit[0] is march:
        return hit[1]
    timing_rows = sorted(
        (
            op.value,
            t.latency,
            t.rtput,
            sorted(p.value for p in t.pipes),
        )
        for op, t in march.timings.items()
    )
    blob = json.dumps(
        [
            SCHEDULER_VERSION,
            march.name,
            march.issue_width,
            window,
            PipelineScheduler.WARMUP_ITERS,
            PipelineScheduler.MEASURE_ITERS,
            timing_rows,
        ],
        separators=(",", ":"),
    )
    fp = hashlib.sha256(blob.encode()).hexdigest()
    if len(_MARCH_FP) >= _FP_MEMO_CAP:
        _MARCH_FP.clear()
    _MARCH_FP[(id(march), window)] = (march, fp)
    return fp


def stream_fingerprint(stream: InstructionStream) -> str:
    """Digest of the schedule-relevant stream content (label excluded)."""
    hit = _STREAM_FP.get(id(stream))
    if hit is not None and hit[0] is stream:
        return hit[1]
    rows = [
        (
            ins.op.value,
            ins.dest,
            list(ins.srcs),
            ins.carried,
            ins.latency_override,
            ins.rtput_override,
        )
        for ins in stream.body
    ]
    blob = json.dumps(
        [stream.elements_per_iter, rows], separators=(",", ":")
    )
    fp = hashlib.sha256(blob.encode()).hexdigest()
    if len(_STREAM_FP) >= _FP_MEMO_CAP:
        _STREAM_FP.clear()
    _STREAM_FP[id(stream)] = (stream, fp)
    return fp


@dataclass
class _Entry:
    """One cached schedule: the unlabeled result + its counter payload."""

    result: ScheduleResult
    counters: dict[str, float] = field(default_factory=dict)

    # -- JSON round-trip for the disk layer ----------------------------
    def to_json(self) -> dict:
        r = self.result
        return {
            "format": DISK_FORMAT,
            "result": {
                "cycles_per_iter": r.cycles_per_iter,
                "elements_per_iter": r.elements_per_iter,
                "instructions_per_iter": r.instructions_per_iter,
                "ipc": r.ipc,
                "pipe_occupancy": {
                    p.value: occ for p, occ in r.pipe_occupancy.items()
                },
                "bound": r.bound,
            },
            "counters": self.counters,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "_Entry":
        if doc.get("format") != DISK_FORMAT:
            raise ValueError(f"unknown cache format {doc.get('format')!r}")
        r = doc["result"]
        result = ScheduleResult(
            cycles_per_iter=r["cycles_per_iter"],
            elements_per_iter=r["elements_per_iter"],
            instructions_per_iter=r["instructions_per_iter"],
            ipc=r["ipc"],
            pipe_occupancy={
                _PIPE_BY_VALUE[v]: occ
                for v, occ in r["pipe_occupancy"].items()
            },
            bound=r["bound"],
            label="",
        )
        return cls(result=result, counters=dict(doc["counters"]))


class ScheduleCache:
    """Thread-safe LRU of schedules, with an optional on-disk layer."""

    def __init__(self, capacity: int = 4096,
                 disk_dir: str | os.PathLike | None = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir else None
        self._entries: OrderedDict[tuple[str, str], _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_writes = 0

    # ------------------------------------------------------------------
    def peek(self, key: tuple[str, str]) -> bool:
        """True if *key* is resident in memory — no stats, no LRU touch.

        Observational probe for layers that report cache provenance
        (the serve tier's per-request ``cache: hit|miss`` field) without
        perturbing the hit/miss counters a real lookup would move.  The
        disk layer is deliberately not consulted: a disk read is not
        free, and provenance only needs to know whether the answer was
        already in this process.
        """
        with self._lock:
            return key in self._entries

    def lookup(self, key: tuple[str, str]) -> _Entry | None:
        """Fetch an entry (refreshing LRU order), or None on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry
        entry = self._disk_read(key)
        with self._lock:
            if entry is not None:
                self.disk_hits += 1
                self.hits += 1
                self._put_locked(key, entry)
            else:
                if self.disk_dir is not None:
                    self.disk_misses += 1
                self.misses += 1
        return entry

    def store(self, key: tuple[str, str], entry: _Entry) -> None:
        """Insert an entry and mirror it to the disk layer if enabled."""
        with self._lock:
            self._put_locked(key, entry)
        self._disk_write(key, entry)

    def _put_locked(self, key: tuple[str, str], entry: _Entry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    def clear(self, disk: bool = False) -> int:
        """Drop every in-memory entry (and persisted ones if *disk*).

        Returns the number of entries removed."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.hits = self.misses = 0
            self.disk_hits = self.disk_misses = self.disk_writes = 0
        if disk and self.disk_dir is not None and self.disk_dir.is_dir():
            for path in self.disk_dir.glob("*.json"):
                try:
                    path.unlink()
                    dropped += 1
                except OSError:  # pragma: no cover - racing cleaner
                    pass
        return dropped

    def stats(self) -> dict[str, float]:
        """Hit/miss/size statistics as a plain dict.

        The ``disk_*`` counters observe the persistent layer alone:
        ``disk_hits``/``disk_misses`` count reads that fell through the
        memory LRU (misses only when a disk directory is configured, so
        memory-only caches report zeros), ``disk_writes`` counts entries
        mirrored out by :meth:`store`.
        """
        with self._lock:
            return {
                "entries": float(len(self._entries)),
                "capacity": float(self.capacity),
                "hits": float(self.hits),
                "misses": float(self.misses),
                "disk_hits": float(self.disk_hits),
                "disk_misses": float(self.disk_misses),
                "disk_writes": float(self.disk_writes),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def _disk_path(self, key: tuple[str, str]) -> Path | None:
        if self.disk_dir is None:
            return None
        march_fp, stream_fp = key
        return self.disk_dir / f"{march_fp[:16]}-{stream_fp[:32]}.json"

    def _disk_read(self, key: tuple[str, str]) -> _Entry | None:
        path = self._disk_path(key)
        if path is None:
            return None
        try:
            doc = json.loads(path.read_text())
            return _Entry.from_json(doc)
        except (OSError, ValueError, KeyError, TypeError):
            # missing, corrupt or stale-format entry: recompute
            return None

    def _disk_write(self, key: tuple[str, str], entry: _Entry) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(entry.to_json(), sort_keys=True))
            tmp.replace(path)
        except OSError:  # pragma: no cover - read-only cache dir etc.
            return
        with self._lock:
            self.disk_writes += 1


# ----------------------------------------------------------------------
_CACHE: ScheduleCache | None = None
_CACHE_LOCK = threading.Lock()


def get_cache() -> ScheduleCache:
    """The process-wide schedule cache (created on first use).

    Honors ``REPRO_CACHE_DIR`` for the on-disk layer at creation time.
    """
    global _CACHE
    with _CACHE_LOCK:
        if _CACHE is None:
            _CACHE = ScheduleCache(disk_dir=os.environ.get("REPRO_CACHE_DIR"))
        return _CACHE


def configure(capacity: int = 4096,
              disk_dir: str | os.PathLike | None = None) -> ScheduleCache:
    """Replace the process-wide cache (e.g. to enable the disk layer)."""
    global _CACHE
    with _CACHE_LOCK:
        _CACHE = ScheduleCache(capacity=capacity, disk_dir=disk_dir)
        return _CACHE


def enabled() -> bool:
    """True when schedule caching is active (``REPRO_SCHEDULE_CACHE``)."""
    return os.environ.get("REPRO_SCHEDULE_CACHE", "").lower() not in (
        "off", "0", "no", "false",
    )
