"""Content-addressed compile cache: memoize :func:`compile_loop`.

Grid-scale sweeps (``run_sweep`` over hundreds of (kernel x toolchain
x window) points) re-lower the *same* (loop, toolchain, march) triple
once per window — vectorization, lowering and memory-stream derivation
are pure functions of content, so all but the first run is wasted work.
:func:`cached_compile` keys compilations on content fingerprints:

* **loop fingerprint** — name, trip count, the full IR body and the
  array table (IR nodes are frozen dataclasses with canonical reprs,
  so structurally identical loops share an entry even when rebuilt);
* **toolchain fingerprint** — every codegen-relevant field of the
  frozen :class:`~repro.compilers.toolchains.Toolchain` (flags, math
  implementations, divide/sqrt strategy, unroll, quality factors);
* **march fingerprint** — reuses
  :func:`repro.engine.cache.march_fingerprint` (timing tables and
  scheduler version), plus the lowering-relevant traits (vector width,
  FEXPA, gather-pair coalescing).

Hit discipline: a hit returns a **fresh** :class:`CompiledLoop` copy
(``dataclasses.replace``) sharing the immutable loop/stream/report
/mem-stream objects but *not* the per-instance cached ``schedule``
property — so a cached compilation is observationally identical to a
cold one: ``cycles_per_element`` still consults the schedule cache and
re-emits its counters.  Compile observers (:mod:`repro.validate`) ran
when the entry was created; like schedule-cache hits, replays are not
re-observed.

Catalog kernels have a warm path that skips the IR as well:
:func:`compile_kernel` remembers the key derived the first time it
compiles a kernel, keyed on (kernel name, ``n``, toolchain
fingerprint, march fingerprint).  :func:`~repro.kernels.catalog.build_kernel`
is deterministic in ``(name, n)``, so a later call looks the key up
directly and builds and hashes the loop only when the entry is not
resident.  The serve tier compiles through it.

Hit/miss statistics live alongside the schedule cache's
(``python -m repro cache show`` prints both); ``REPRO_COMPILE_CACHE=off``
disables the layer the same way ``REPRO_SCHEDULE_CACHE`` does for
schedules.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Callable

from repro.compilers.codegen import CompiledLoop, compile_loop
from repro.compilers.ir import Loop
from repro.compilers.toolchains import Toolchain
from repro.machine.microarch import Microarch

__all__ = [
    "CompileCache",
    "cached_compile",
    "compile_cache_enabled",
    "compile_kernel",
    "compile_key",
    "configure_compile_cache",
    "get_compile_cache",
    "loop_fingerprint",
    "toolchain_fingerprint",
]


def loop_fingerprint(loop: Loop) -> str:
    """Digest of everything about *loop* that lowering reads.

    IR nodes are frozen dataclasses whose ``repr`` is canonical; the
    array table is serialized in sorted-name order so construction
    order cannot split entries.
    """
    blob = repr((loop.name, loop.length, loop.body,
                 tuple(sorted(loop.arrays.items()))))
    return hashlib.sha256(blob.encode()).hexdigest()


#: fingerprints of process-lived catalog objects, keyed by id with the
#: object pinned in the value so the id cannot be recycled
_OBJ_FP: dict[int, tuple[object, str]] = {}
_OBJ_FP_LOCK = threading.Lock()


def _pinned_fingerprint(obj: object) -> str:
    with _OBJ_FP_LOCK:
        hit = _OBJ_FP.get(id(obj))
        if hit is not None:
            return hit[1]
    fp = hashlib.sha256(repr(obj).encode()).hexdigest()
    with _OBJ_FP_LOCK:
        _OBJ_FP[id(obj)] = (obj, fp)
    return fp


def toolchain_fingerprint(tc: Toolchain) -> str:
    """Digest of the frozen toolchain (flags, strategies, qualities)."""
    return _pinned_fingerprint(tc)


def compile_key(loop: Loop, toolchain: Toolchain,
                march: Microarch) -> tuple[str, str, str]:
    """The content-addressed cache key for one compilation.

    The march component digests the frozen ``Microarch`` repr, which
    covers both the timing tables and the lowering traits
    (``vector_bits``, ``has_fexpa``, gather-pair coalescing, ...).
    """
    return (loop_fingerprint(loop), toolchain_fingerprint(toolchain),
            _pinned_fingerprint(march))


class CompileCache:
    """Thread-safe LRU of :class:`CompiledLoop` results, content-keyed."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, str, str], CompiledLoop] = (
            OrderedDict())
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def peek(self, key: tuple[str, str, str]) -> bool:
        """True if *key* is resident — no stats movement, no LRU touch.

        Provenance probe mirroring
        :meth:`repro.engine.cache.ScheduleCache.peek`; the serve tier
        uses it to label ECM responses ``cache: hit|miss`` without
        disturbing the counters asserted by the dedup test suites.
        """
        with self._lock:
            return key in self._entries

    def lookup(self, key: tuple[str, str, str]) -> CompiledLoop | None:
        """Fetch an entry (refreshing LRU order), or None on miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def store(self, key: tuple[str, str, str],
              entry: CompiledLoop) -> None:
        """Insert an entry, evicting least-recently-used past capacity."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> int:
        """Drop every entry and reset statistics; returns entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self.hits = self.misses = 0
        return dropped

    def stats(self) -> dict[str, float]:
        """Hit/miss/size statistics as a plain dict."""
        with self._lock:
            return {
                "entries": float(len(self._entries)),
                "capacity": float(self.capacity),
                "hits": float(self.hits),
                "misses": float(self.misses),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# ----------------------------------------------------------------------
_CACHE: CompileCache | None = None
_CACHE_LOCK = threading.Lock()


def get_compile_cache() -> CompileCache:
    """The process-wide compile cache (created on first use)."""
    global _CACHE
    with _CACHE_LOCK:
        if _CACHE is None:
            _CACHE = CompileCache()
        return _CACHE


def configure_compile_cache(capacity: int = 1024) -> CompileCache:
    """Replace the process-wide compile cache (fresh, empty)."""
    global _CACHE
    with _CACHE_LOCK:
        _CACHE = CompileCache(capacity=capacity)
        return _CACHE


def compile_cache_enabled() -> bool:
    """True unless ``REPRO_COMPILE_CACHE=off`` (same grammar as the
    schedule cache's ``REPRO_SCHEDULE_CACHE`` kill switch)."""
    return os.environ.get("REPRO_COMPILE_CACHE", "").lower() not in (
        "off", "0", "no", "false",
    )


def _compile_through(cache: CompileCache, key: tuple[str, str, str],
                     build: Callable[[], Loop], toolchain: Toolchain,
                     march: Microarch) -> tuple[CompiledLoop, bool]:
    """One lookup of *key*; on a miss, compile ``build()`` and store it.

    Returns the compilation and whether it was resident (a hit).
    """
    entry = cache.lookup(key)
    if entry is not None:
        return replace(entry), True
    entry = compile_loop(build(), toolchain, march)
    cache.store(key, entry)
    return entry, False


def cached_compile(loop: Loop, toolchain: Toolchain,
                   march: Microarch) -> CompiledLoop:
    """:func:`compile_loop` through the content-addressed cache.

    A hit returns a fresh :class:`CompiledLoop` instance (shared
    immutable components, private ``schedule`` slot), so downstream
    schedule-cache lookups and counter emissions are identical whether
    the compilation was cached or cold.
    """
    if not compile_cache_enabled():
        return compile_loop(loop, toolchain, march)
    key = compile_key(loop, toolchain, march)
    return _compile_through(get_compile_cache(), key, lambda: loop,
                            toolchain, march)[0]


#: compile keys derived for catalog kernels, keyed on (kernel name, n,
#: toolchain fingerprint, march fingerprint); one entry per combination
#: ever compiled through :func:`compile_kernel`
_KERNEL_KEYS: dict[tuple, tuple[str, str, str]] = {}


def compile_kernel(name: str, toolchain: Toolchain, march: Microarch,
                   n: int | None = None) -> tuple[CompiledLoop, bool]:
    """``cached_compile(build_kernel(name, n), toolchain, march)``,
    plus whether the compilation was resident before the call.

    A warm call finds the remembered compile key and neither builds nor
    hashes the loop IR.  Cache statistics move exactly as for
    :func:`cached_compile`: one lookup per call, a hit or a miss.  With
    ``REPRO_COMPILE_CACHE=off`` the loop is built and compiled fresh.
    """
    from repro.kernels.catalog import build_kernel

    if not compile_cache_enabled():
        return compile_loop(build_kernel(name, n), toolchain, march), False
    memo = (name, n, toolchain_fingerprint(toolchain),
            _pinned_fingerprint(march))
    key = _KERNEL_KEYS.get(memo)
    if key is None:
        loop = build_kernel(name, n)
        key = _KERNEL_KEYS.setdefault(memo,
                                      compile_key(loop, toolchain, march))
        return _compile_through(get_compile_cache(), key, lambda: loop,
                                toolchain, march)
    return _compile_through(get_compile_cache(), key,
                            lambda: build_kernel(name, n), toolchain, march)
