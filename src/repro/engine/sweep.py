"""Parallel sweep runner: fan schedule work out over workers.

Every figure/table in the reproduction is a sweep — (kernel x toolchain
x system x window) points that are embarrassingly parallel once the
schedule cache (:mod:`repro.engine.cache`) deduplicates shared work.
This module provides the fan-out primitives used by
``examples/reproduce_paper.py``, the figure drivers and
``benchmarks/engine_bench.py``:

* :func:`map_schedules` — ``map(fn, items)`` over a thread/process pool
  (or serially), preserving input order, with **exact counter merging**:
  each task runs inside its own :class:`~repro.perf.counters.ProfileScope`
  (the scope stack is thread-local), and the captured counters are merged
  into the caller's active scopes in submission order — so
  ``ProfileScope`` totals under parallelism are bit-identical to a
  serial run.
* :func:`run_sweep` — the common case: schedule a list of
  :class:`SweepPoint` (loop, toolchain[, window]) specs and return one
  stats row per point.  Points are named, not objects, so the work ships
  cleanly to process pools.

Modes: ``"serial"`` (in-process, live emission), ``"thread"`` (default;
shares the in-process schedule cache, fine for the GIL-light scheduler
inner loop), ``"process"`` (true parallelism; combine with
``REPRO_CACHE_DIR`` so workers share schedules via the disk cache).

Batched scheduling: :func:`run_sweep` routes every sweep, one point or
thousands, through the grid fast paths — compilations deduplicate
through the content-addressed compile cache
(:mod:`repro.compilers.cache`), engine-tier points run as one
structure-of-arrays batch (:mod:`repro.engine.batch`; sharded over a
process pool by :mod:`repro.engine.shard` under ``mode="process"``),
and ECM-tier points evaluate as one vectorized array program
(:mod:`repro.ecm.batch`).  ``batch=False`` keeps the per-point
reference path (one ``schedule_on`` or ``predict_compiled`` per point
through :func:`map_schedules`).  Rows and cache statistics are
identical either way, and so are counter totals, except that the
per-point path's thread pool merges per-task subtotals, so a float
total may then differ in the last bit.
"""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, Sequence, TypeVar

from repro.perf.counters import ProfileScope, active_scopes

__all__ = [
    "PoolDowngradeWarning",
    "SweepPoint",
    "TIERS",
    "last_effective_mode",
    "map_schedules",
    "run_sweep",
]

T = TypeVar("T")
R = TypeVar("R")

MODES = ("serial", "thread", "process")


#: prediction tiers a sweep point can run under
TIERS = ("engine", "ecm")


class PoolDowngradeWarning(RuntimeWarning):
    """A requested process pool was unavailable; threads ran instead.

    Emitted by :func:`map_schedules` and
    :func:`repro.engine.shard.schedule_batch_sharded` when
    ``mode="process"`` cannot create a
    :class:`~concurrent.futures.ProcessPoolExecutor` (sandboxes without
    fork/spawn).  Results are identical either way — only the expected
    parallel speedup is lost — but the downgrade is no longer silent:
    callers and tests can catch the warning or inspect
    :func:`last_effective_mode`.
    """


_EFFECTIVE_MODE = threading.local()


def _set_effective_mode(mode: str) -> None:
    _EFFECTIVE_MODE.value = mode


def last_effective_mode() -> str | None:
    """Executor mode the calling thread's last sweep actually used.

    ``"serial"``, ``"thread"`` or ``"process"`` — the mode that *ran*,
    after any short-circuit (single item, one worker) or process-pool
    downgrade; ``None`` before any sweep ran on this thread.
    """
    return getattr(_EFFECTIVE_MODE, "value", None)


def _make_pool(mode: str, max_workers: int | None) -> tuple[Executor, str]:
    """Create the executor for *mode*; returns (pool, effective mode).

    The process→thread downgrade (no fork/spawn in sandboxes) warns via
    :class:`PoolDowngradeWarning` instead of swapping silently.
    """
    if mode == "process":
        try:
            return ProcessPoolExecutor(max_workers=max_workers), "process"
        except (OSError, PermissionError) as exc:
            warnings.warn(
                f"process pool unavailable ({exc}); "
                "falling back to a thread pool",
                PoolDowngradeWarning, stacklevel=3,
            )
    return ThreadPoolExecutor(max_workers=max_workers), "thread"


@dataclass(frozen=True)
class SweepPoint:
    """One schedule request, by name (picklable for process pools).

    ``tier`` selects the prediction tier: ``"engine"`` simulates the
    steady-state schedule;
    ``"ecm"`` evaluates the analytical ECM model
    (:mod:`repro.ecm.model`) instead — no simulation, microseconds per
    point.

    ``machine`` names a :data:`~repro.machine.spec.MACHINE_SPECS`
    preset to target instead of the paper's default pairing (A64FX for
    SVE toolchains, Skylake 6140 for x86); ECM-tier points then price
    traffic against that machine's own memory system.
    """

    loop: str
    toolchain: str
    window: int | None = None
    tier: str = "engine"
    machine: str | None = None


def _captured_call(fn: Callable[[T], R], item: T) -> tuple[R, dict[str, float]]:
    """Run one task under a private scope; return (value, its counters)."""
    with ProfileScope("sweep-task") as counters:
        value = fn(item)
    return value, counters.as_dict()


def map_schedules(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    mode: str = "thread",
    max_workers: int | None = None,
) -> list[R]:
    """Apply *fn* to every item, possibly in parallel; results in order.

    Counters emitted inside tasks are merged into the caller's active
    profiling scopes in submission order, keeping totals exactly equal
    to a serial run.  ``mode="process"`` requires *fn* and the items to
    be picklable (use module-level functions and name-based specs).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    items = list(items)
    if mode == "serial" or len(items) <= 1:
        # live emission into the caller's scopes; nothing to merge
        _set_effective_mode("serial")
        return [fn(item) for item in items]

    pool, effective = _make_pool(mode, max_workers)
    _set_effective_mode(effective)
    with pool:
        outcomes = list(pool.map(_captured_call, repeat(fn), items))

    results: list[R] = []
    scopes = active_scopes()
    for value, counters in outcomes:
        for scope in scopes:
            scope.merge(counters)
        results.append(value)
    return results


# ----------------------------------------------------------------------
def _normalize(
    point: "SweepPoint | Sequence", tier: str | None,
) -> tuple[str, str, int | None, str, str | None]:
    if isinstance(point, SweepPoint):
        return (point.loop, point.toolchain, point.window,
                tier or point.tier, point.machine)
    loop, toolchain, *rest = point
    window = rest[0] if rest else None
    point_tier = rest[1] if len(rest) > 1 else None
    machine = rest[2] if len(rest) > 2 else None
    return (str(loop), str(toolchain), window,
            tier or point_tier or "engine", machine)


def _resolve_targets(tc_name: str, machine: str | None):
    """(march, system) for one sweep point.

    With no machine the paper's default pairing applies (A64FX for SVE
    toolchains, Skylake 6140 for x86, systems via
    :func:`~repro.perf.profile.default_system_for`); a ``machine``
    preset key targets that spec's core and — for ECM pricing — its own
    node.  The system is resolved lazily because engine-tier points
    never need one (core-only presets stay sweepable there).
    """
    from repro.compilers.toolchains import get_toolchain
    from repro.machine.microarch import A64FX, SKYLAKE_6140

    if machine is not None:
        from repro.machine.spec import get_machine_spec

        spec = get_machine_spec(machine)
        return spec.build_core(), spec.build_system
    tc = get_toolchain(tc_name)
    march = SKYLAKE_6140 if tc.target == "x86" else A64FX

    def default_system():
        from repro.machine.systems import get_system
        from repro.perf.profile import default_system_for

        return get_system(default_system_for(tc_name))

    return march, default_system


def _schedule_point(
    spec: tuple[str, str, int | None, str, str | None],
) -> dict:
    """Compile + predict one named sweep point (top-level: picklable).

    The ``engine`` tier simulates through the cached scheduler;
    the ``ecm`` tier evaluates the analytical model on the same
    compiled loop, so the two rows are directly comparable.
    """
    from repro.compilers.codegen import compile_loop
    from repro.compilers.toolchains import get_toolchain
    from repro.kernels.catalog import build_kernel

    loop, tc_name, window, tier, machine = spec
    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
    tc = get_toolchain(tc_name)
    march, system_of = _resolve_targets(tc_name, machine)
    compiled = compile_loop(build_kernel(loop), tc, march)
    row = {
        "loop": loop,
        "toolchain": tc.name,
        "march": march.name,
        "window": window if window is not None else march.window,
        "tier": tier,
        "model_cycles_per_element": compiled.cycles_per_element,
    }
    if machine is not None:
        row["machine"] = machine
    if tier == "ecm":
        from repro.ecm.model import predict_compiled

        system = system_of()
        pred = predict_compiled(compiled, system, window=window)
        row.update({
            "cycles_per_iter": pred.cycles_per_iter,
            "cycles_per_element": pred.cycles_per_element,
            "ipc": pred.incore.n_instrs / pred.cycles_per_iter,
            "bound": pred.bound,
        })
        return row
    from repro.engine.scheduler import schedule_on

    sched = schedule_on(march, compiled.stream, window)
    row.update({
        "cycles_per_iter": sched.cycles_per_iter,
        "cycles_per_element": sched.cycles_per_element,
        "ipc": sched.ipc,
        "bound": sched.bound,
    })
    return row


def _run_sweep_batched(
    specs: list[tuple[str, str, int | None, str, str | None]],
    *,
    mode: str,
    max_workers: int | None,
) -> list[dict]:
    """Batched sweep: both tiers ride the grid fast paths.

    Compilations go through the content-addressed compile cache
    (:func:`repro.compilers.cache.cached_compile`), so a grid sharing
    (loop, toolchain) across many windows lowers each combination once.
    Every point contributes the default-window schedule request behind
    ``CompiledLoop.cycles_per_element``; engine points add their
    explicitly windowed request — matching the per-point path request
    for request, so cache statistics and ``ProfileScope`` totals stay
    bit-identical.  The deduplicated batch simulates sharded over a
    process pool under ``mode="process"``
    (:func:`repro.engine.shard.schedule_batch_sharded`), in-process
    otherwise; ECM-tier rows then compose in one vectorized pass
    (:func:`repro.ecm.batch.predict_batch`).
    """
    from repro.compilers.cache import cached_compile
    from repro.compilers.toolchains import get_toolchain
    from repro.ecm.batch import predict_batch
    from repro.engine.batch import schedule_batch
    from repro.engine.shard import schedule_batch_sharded
    from repro.kernels.catalog import build_kernel

    rows: list[dict | None] = [None] * len(specs)
    requests: list[tuple] = []
    pending: list[tuple] = []
    # one compiled loop per (loop, toolchain, machine) combo for the
    # whole sweep; the request list below still carries one entry per
    # *point*, which is what keeps cache statistics and counters equal
    # to the per-point path — sharing the compiled object only skips
    # redundant IR builds
    compiled_of: dict[tuple[str, str, str | None], object] = {}
    system_of: dict[tuple[str, str | None], object] = {}
    for i, (loop, tc_name, window, point_tier, machine) in enumerate(specs):
        if point_tier not in TIERS:
            raise ValueError(
                f"tier must be one of {TIERS}, got {point_tier!r}"
            )
        compiled = compiled_of.get((loop, tc_name, machine))
        if compiled is None:
            tc = get_toolchain(tc_name)
            march, resolve_system = _resolve_targets(tc_name, machine)
            system_of.setdefault((tc_name, machine), resolve_system)
            compiled = cached_compile(build_kernel(loop), tc, march)
            compiled_of[(loop, tc_name, machine)] = compiled
        march = compiled.march
        req_idx = len(requests)
        # the default-window schedule behind cycles_per_element; the
        # per-point path looks it up for every row in both tiers
        requests.append((march, compiled.stream))
        if point_tier == "engine":
            requests.append((march, compiled.stream, window))
        pending.append((i, compiled, march, window, point_tier, req_idx))

    if mode == "process":
        results = schedule_batch_sharded(requests, max_workers=max_workers)
    else:
        _set_effective_mode("serial")
        results = schedule_batch(requests)

    ecm_items: list[tuple] = []
    ecm_rows: list[tuple[int, dict]] = []
    for i, compiled, march, window, point_tier, req_idx in pending:
        # pre-seed the cached property so cycles_per_element reuses the
        # batch result instead of scheduling the point again
        compiled.__dict__["schedule"] = results[req_idx]
        row = {
            "loop": specs[i][0],
            "toolchain": compiled.toolchain.name,
            "march": march.name,
            "window": window if window is not None else march.window,
            "tier": point_tier,
            "model_cycles_per_element": compiled.cycles_per_element,
        }
        machine = specs[i][4]
        if machine is not None:
            row["machine"] = machine
        if point_tier == "ecm":
            system = system_of[(specs[i][1], machine)]()
            ecm_items.append((compiled, system, window))
            ecm_rows.append((i, row))
            continue
        sched = results[req_idx + 1]
        row.update({
            "cycles_per_iter": sched.cycles_per_iter,
            "cycles_per_element": sched.cycles_per_element,
            "ipc": sched.ipc,
            "bound": sched.bound,
        })
        rows[i] = row

    if ecm_items:
        preds = predict_batch(ecm_items)
        for (i, row), pred in zip(ecm_rows, preds):
            row.update({
                "cycles_per_iter": pred.cycles_per_iter,
                "cycles_per_element": pred.cycles_per_element,
                "ipc": pred.incore.n_instrs / pred.cycles_per_iter,
                "bound": pred.bound,
            })
            rows[i] = row
    return rows  # type: ignore[return-value]


def run_sweep(
    points: Iterable["SweepPoint | Sequence"],
    *,
    mode: str = "thread",
    max_workers: int | None = None,
    tier: str | None = None,
    batch: bool | None = None,
) -> list[dict]:
    """Predict every (loop, toolchain[, window]) point; one row each.

    Rows arrive in input order and carry the prediction statistics plus
    the codegen-adjusted ``model_cycles_per_element`` (the quantity the
    paper's Section IV tables quote).  ``tier`` overrides the tier of
    every point at once (``--tier ecm`` on the CLIs lands here); per
    -point tiers come from :attr:`SweepPoint.tier`.

    Every sweep runs on the batched grid paths; ``batch=False`` selects
    the per-point reference path instead (``None`` and ``True`` both
    batch).  Rows and cache statistics are identical either way (see
    the module docstring for counter totals); under ``mode="process"``
    the batch simulation itself shards across a process pool.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    specs = [_normalize(p, tier) for p in points]
    if batch is False or not specs:
        return map_schedules(
            _schedule_point, specs, mode=mode, max_workers=max_workers
        )
    return _run_sweep_batched(specs, mode=mode, max_workers=max_workers)
