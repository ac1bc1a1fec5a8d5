"""Engine micro-benchmark: the repo's performance trajectory file.

Times the pipeline-scheduler hot path over the Fig. 1 + Fig. 2 kernel
set (every suite loop x all five toolchains) in four configurations:

``cold_seed``
    the preserved seed implementation
    (:class:`repro.engine._reference.ReferenceScheduler`) — the baseline
    all speedups are measured against;
``cold_per_point``
    one :class:`~repro.engine.scheduler.PipelineScheduler` run (a single
    batch lane with steady-state extrapolation) per point, memos
    cleared, no cache;
``batched_cold``
    the whole suite as one structure-of-arrays batch
    (:func:`repro.engine.batch.schedule_batch`, caches and precompiled
    tables cleared first) — content-identical points deduplicate and the
    int-indexed lanes replace the scalar heap walk; 10x acceptance
    floor over ``cold_seed``;
``warm_cache``
    the same sweep again through :func:`repro.engine.scheduler.schedule_on`
    with the cache primed — the steady state of a figure-suite run;
``parallel``
    the warm sweep fanned out over :func:`repro.engine.sweep.run_sweep`
    worker threads;
``ecm_eval``
    the analytical ECM tier (:func:`repro.ecm.model.predict_compiled`)
    over the same precompiled points — no simulation at all; its
    speedup is quoted against ``cold_seed`` with the
    :data:`ECM_SPEEDUP_FLOOR` acceptance floor.

``--tier engine`` times only the scheduler configurations, ``--tier
ecm`` only the analytical tier (plus the ``cold_seed`` reference it is
measured against); ``--tier grid`` times the grid-scale sweep paths —
a >=512-point mixed-tier (engine + ecm) window grid through
:func:`repro.engine.sweep.run_sweep` with points/sec, the sharded batch
(:func:`repro.engine.shard.schedule_batch_sharded`) against the serial
batch (2x floor, enforced when >= :data:`GRID_MIN_CORES` cores are
available), and the ECM sweep stage through the vectorized batch
(:func:`repro.ecm.batch.predict_batch`) against the per-point fallback
it replaced (5x floor), and the machine axis — a
>= :data:`GRID_MIN_MACHINES`-machine hypothetical design grid
(:func:`repro.machine.spec.grid_specs`) scored end-to-end through
:func:`repro.machine.grid.machine_grid_predictions` (spec build +
shared compile + batched predictions, gated at
:data:`GRID_MACHINE_RATE_FLOOR` points/s) with the batched predictions
checked exactly equal to per-point ``predict_compiled`` over the same
items — plus a full batched-vs-per-point row equality check; the
default ``all`` runs everything.

Results are written as versioned JSON (``repro.bench/1``) to
``BENCH_engine.json`` so the performance trajectory is tracked in-repo;
CI runs the full variant and archives the document.  The run fails
(exit 1) if the scheduler (per point, cached or batched) deviates from
the seed scheduler by more than 1e-9 relative — counter payloads
included — if the front-end slot identity breaks, or if the warm-cache
5x / batched 10x / ECM speedup floors are missed (full mode).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

BENCH_FORMAT = "repro.bench/1"
SPEEDUP_FLOOR = 5.0
BATCH_SPEEDUP_FLOOR = 10.0
#: analytical tier vs ``cold_seed``: 100x over the former event-driven
#: per-point scheduler, which ran a median 5.49x faster than the seed
#: scheduler (10 runs of this suite), so 549x here is equally strict
ECM_SPEEDUP_FLOOR = 549.0
EQUIV_RTOL = 1e-9

#: sharded batch must beat the serial batch by this factor per point...
GRID_SHARD_FLOOR = 2.0
#: ...but only where the machine can actually parallelize
GRID_MIN_CORES = 4
#: vectorized ECM batch must beat per-point analytical evaluation
GRID_ECM_FLOOR = 5.0
#: a grid run must carry at least this many mixed-tier points
GRID_MIN_POINTS = 512
#: the machine-axis row sweeps at least this many hypothetical machines
GRID_MIN_MACHINES = 500
#: machine-axis end-to-end throughput floor, points per second.  The
#: axis cannot be gated as a batched-vs-per-point ratio: every grid
#: machine is a distinct Microarch, so the in-core base analysis runs
#: once per point on both sides and the ratio sits near 1x by
#: construction.  The win is compile sharing (one compile per codegen
#: signature retargeted across hundreds of machines), which this
#: absolute rate floor captures with a ~25x margin over a single
#: modern core.
GRID_MACHINE_RATE_FLOOR = 200.0

#: kernels of the machine-axis bench row (one per paper mechanism:
#: streaming, gather, blocking sqrt, vector math)
_GRID_MACHINE_KERNELS = ("simple", "gather", "sqrt", "exp")

TIERS = ("engine", "ecm", "grid", "all")

#: window axes of the grid tier: the engine axis simulates fewer, wider
#: points; the analytical axis is window-dense — sweeping the reorder
#: window is what the closed-form tier is for, and each extra window
#: costs the batch almost nothing
_GRID_ENGINE_WINDOWS = (None, 8, 24, 48)
_GRID_ECM_WINDOWS = (None, 2, 4, 8, 16, 24, 32, 48, 64, 96)

_QUICK_LOOPS = ("simple", "gather", "sqrt", "exp")
_QUICK_TCS = ("fujitsu", "gnu", "intel")


def _points(quick: bool) -> list[tuple[str, str]]:
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.kernels.loops import LOOP_NAMES, MATH_LOOP_NAMES

    loops = _QUICK_LOOPS if quick else LOOP_NAMES + MATH_LOOP_NAMES
    tcs = _QUICK_TCS if quick else tuple(TOOLCHAINS)
    return [(loop, tc) for loop in loops for tc in tcs]


def _compiled(points: list[tuple[str, str]]):
    """Pre-compile every point so only prediction is on the clock."""
    from repro.compilers.codegen import compile_loop
    from repro.compilers.toolchains import get_toolchain
    from repro.kernels.loops import build_loop
    from repro.machine.microarch import A64FX, SKYLAKE_6140

    out = []
    for loop, tc_name in points:
        tc = get_toolchain(tc_name)
        march = SKYLAKE_6140 if tc.target == "x86" else A64FX
        full = compile_loop(build_loop(loop), tc, march)
        out.append((loop, tc_name, march, full.stream, full))
    return out


def _rel_dev(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _check_equivalence(compiled) -> dict:
    """Scheduler results vs the seed scheduler, point by point.

    Covers the per-point scheduler, the cache replay, and the whole
    suite as one batch; per-point ``pipeline.*`` counters must match
    the seed scheduler's within the same tolerance.
    """
    from repro.engine._reference import ReferenceScheduler
    from repro.engine.batch import schedule_batch
    from repro.engine.scheduler import PipelineScheduler, schedule_on
    from repro.perf.counters import ProfileScope

    batched = schedule_batch(
        [(march, stream) for _, _, march, stream, _full in compiled],
        cache=False,
    )
    worst = 0.0
    worst_point = None
    for (loop, tc_name, march, stream, _full), in_batch in zip(
            compiled, batched):
        with ProfileScope("seed") as seed_counters:
            ref = ReferenceScheduler(march).steady_state(stream)
        with ProfileScope("per-point") as point_counters:
            fast = PipelineScheduler(march).steady_state(stream)
        seed_c, point_c = seed_counters.as_dict(), point_counters.as_dict()
        if seed_c.keys() != point_c.keys():
            dev = 1.0  # a missing or extra counter is full deviation
        else:
            dev = max(_rel_dev(point_c[k], v) for k, v in seed_c.items())
        if dev > worst:
            worst, worst_point = dev, (loop, tc_name)
        for result in (fast, schedule_on(march, stream), in_batch):
            dev = max(
                _rel_dev(result.cycles_per_iter, ref.cycles_per_iter),
                _rel_dev(result.ipc, ref.ipc),
                max(
                    _rel_dev(result.pipe_occupancy[p], occ)
                    for p, occ in ref.pipe_occupancy.items()
                ),
                0.0 if result.bound == ref.bound else 1.0,
            )
            if dev > worst:
                worst, worst_point = dev, (loop, tc_name)
    return {
        "max_rel_deviation": worst,
        "worst_point": worst_point,
        "tolerance": EQUIV_RTOL,
        "pass": worst <= EQUIV_RTOL,
    }


def _check_counter_identity(compiled) -> bool:
    """pipeline.issue_slots.total == used + stalled, fresh and cached."""
    from repro.engine.scheduler import PipelineScheduler, schedule_on
    from repro.perf.counters import ProfileScope

    for _, _, march, stream, _full in compiled:
        for run in (
            lambda: PipelineScheduler(march).steady_state(stream),
            lambda: schedule_on(march, stream),  # hit: replayed payload
        ):
            with ProfileScope("identity") as counters:
                run()
            total = counters["pipeline.issue_slots.total"]
            used = counters["pipeline.issue_slots.used"]
            stalled = counters["pipeline.issue_slots.stalled"]
            if total != used + stalled:
                return False
    return True


def _time_ecm(compiled, reps: int = 3) -> float:
    """Wall time of the analytical tier over every precompiled point.

    One full sweep takes single-digit milliseconds, so this is a
    micro-benchmark: one untimed warm-up pass, then the best of *reps*
    timed sweeps (the scheduler configurations are long enough that a
    single pass is already stable).
    """
    from repro.ecm.model import predict_compiled
    from repro.machine.systems import get_system
    from repro.perf.profile import default_system_for

    systems = {
        tc_name: get_system(default_system_for(tc_name))
        for tc_name in {p[1] for p in compiled}
    }
    best = float("inf")
    for rep in range(reps + 1):
        t0 = time.perf_counter()
        for _, tc_name, _, _, full in compiled:
            predict_compiled(full, systems[tc_name])
        if rep > 0:  # rep 0 is the warm-up
            best = min(best, time.perf_counter() - t0)
    return best


def _grid_points() -> list[tuple[str, str, int | None, str]]:
    """The >=512-point mixed-tier grid: loops x toolchains x windows."""
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.kernels.loops import LOOP_NAMES, MATH_LOOP_NAMES

    points: list[tuple[str, str, int | None, str]] = []
    for loop in LOOP_NAMES + MATH_LOOP_NAMES:
        for tc in TOOLCHAINS:
            for win in _GRID_ENGINE_WINDOWS:
                points.append((loop, tc, win, "engine"))
            for win in _GRID_ECM_WINDOWS:
                points.append((loop, tc, win, "ecm"))
    assert len(points) >= GRID_MIN_POINTS
    return points


def _grid_reset() -> None:
    """Drop every cache/memo layer the grid paths can warm."""
    from repro.compilers.cache import get_compile_cache
    from repro.ecm.batch import clear_ecm_memos
    from repro.engine.batch import clear_tables
    from repro.engine.cache import get_cache
    from repro.engine.scheduler import clear_memos

    get_cache().clear()
    get_compile_cache().clear()
    clear_memos()
    clear_tables()
    clear_ecm_memos()


def _run_grid(workers: int | None) -> dict:
    """Time the grid-scale sweep paths; returns the ``grid`` document.

    Three measurements over the same >=512-point mixed-tier grid:

    * the end-to-end batched sweep (``run_sweep(..., mode="process")``),
      quoted as points/sec;
    * the sharded batch vs the serial batch over the grid's unique
      engine requests (identical results asserted; the
      :data:`GRID_SHARD_FLOOR` is enforced only with at least
      :data:`GRID_MIN_CORES` cores — a 1-core runner records the ratio
      but cannot fail it);
    * the grid's ECM sweep stage through the vectorized batch path vs
      the per-point fallback it replaced (``batch=False``: one compile
      + one analytical prediction per point), schedules already primed
      as they are mid-sweep, compile cache and ECM memos cold
      (:data:`GRID_ECM_FLOOR`), rows compared for exact equality.

    Finally the batched sweep rows are checked equal to the per-point
    path's over the full grid.
    """
    from repro.compilers.cache import cached_compile
    from repro.compilers.toolchains import TOOLCHAINS, get_toolchain
    from repro.engine.batch import clear_tables, schedule_batch
    from repro.engine.scheduler import clear_memos
    from repro.engine.shard import last_shard_plan, schedule_batch_sharded
    from repro.engine.sweep import run_sweep
    from repro.kernels.catalog import build_kernel
    from repro.kernels.loops import LOOP_NAMES, MATH_LOOP_NAMES
    from repro.machine.microarch import A64FX, SKYLAKE_6140

    points = _grid_points()
    cores = os.cpu_count() or 1

    # -- end-to-end batched sweep, cold ---------------------------------
    _grid_reset()
    t0 = time.perf_counter()
    rows = run_sweep(points, mode="process", max_workers=workers)
    t_sweep = time.perf_counter() - t0

    # -- sharded vs serial batch over the unique engine requests --------
    combos = []
    for loop in LOOP_NAMES + MATH_LOOP_NAMES:
        for tc_name in TOOLCHAINS:
            tc = get_toolchain(tc_name)
            march = SKYLAKE_6140 if tc.target == "x86" else A64FX
            combos.append((loop, tc_name,
                           cached_compile(build_kernel(loop), tc, march)))
    reqs = [(c.march, c.stream, win)
            for _, _, c in combos for win in _GRID_ENGINE_WINDOWS]
    clear_memos()
    clear_tables()
    t0 = time.perf_counter()
    serial_results = schedule_batch(reqs, cache=False)
    t_serial = time.perf_counter() - t0
    clear_memos()
    clear_tables()
    t0 = time.perf_counter()
    sharded_results = schedule_batch_sharded(
        reqs, cache=False, max_workers=workers or cores)
    t_sharded = time.perf_counter() - t0
    shard_exact = serial_results == sharded_results
    shard_plan = last_shard_plan() or {"routing": "serial", "workers": 1,
                                       "jobs": 0}
    if shard_plan["routing"] == "serial":
        # the profitability router fell back to the serial batch path,
        # so the "sharded" run above timed the identical implementation:
        # report the routed time but score the row as 1.0x rather than
        # reading pool-free measurement noise as a sharding slowdown
        shard_speedup = 1.0
    else:
        shard_speedup = t_serial / t_sharded if t_sharded else float("inf")
    shard_enforced = (cores >= GRID_MIN_CORES
                      and shard_plan["routing"] == "sharded")

    # -- ECM sweep stage: vectorized batch vs the per-point fallback ----
    # timed as the stage occurs inside a grid sweep: the schedule cache
    # stays primed from the runs above (the engine axis already
    # simulated these streams), so what is compared is exactly the
    # per-ECM-point work the vectorized path replaced — batch=False is
    # the pre-batching fallback (one compile + one analytical prediction
    # per point), batch=True compiles through the content-addressed
    # cache and composes every prediction in one array program.  Compile
    # cache and ECM memos start cold on both sides; rows must match
    # exactly.
    from repro.compilers.cache import get_compile_cache
    from repro.ecm.batch import clear_ecm_memos

    ecm_points = [p for p in points if p[3] == "ecm"]
    get_compile_cache().clear()
    clear_ecm_memos()
    t0 = time.perf_counter()
    pp_ecm_rows = run_sweep(ecm_points, mode="serial", batch=False)
    t_pp = time.perf_counter() - t0
    get_compile_cache().clear()
    clear_ecm_memos()
    t0 = time.perf_counter()
    vec_ecm_rows = run_sweep(ecm_points, mode="serial", batch=True)
    t_vec = time.perf_counter() - t0
    ecm_exact = pp_ecm_rows == vec_ecm_rows
    ecm_speedup = t_pp / t_vec if t_vec else float("inf")

    # -- machine axis: >=500 hypothetical machines through the batched
    # ECM tier vs the per-point analytical evaluation.  Every machine is
    # a distinct Microarch, so the per-point side gets no memo sharing —
    # the measured win is the vectorized array program itself.
    from repro.ecm.batch import predict_batch
    from repro.ecm.model import predict_compiled
    from repro.machine.grid import machine_grid_predictions
    from repro.machine.spec import grid_specs

    specs = grid_specs(GRID_MIN_MACHINES)
    get_compile_cache().clear()
    clear_ecm_memos()
    # end-to-end sweep: spec -> core/system build -> shared compile ->
    # batched predictions (the ``repro sweep --grid`` hot path)
    t0 = time.perf_counter()
    items, _, skipped = machine_grid_predictions(
        specs, _GRID_MACHINE_KERNELS)
    t_machine_total = time.perf_counter() - t0
    # floor comparison over the identical prebuilt items: one array
    # program vs one predict_compiled call per point, memos cleared on
    # both sides
    clear_ecm_memos()
    t0 = time.perf_counter()
    preds = predict_batch(items)
    t_machines = time.perf_counter() - t0
    clear_ecm_memos()
    t0 = time.perf_counter()
    scalar_preds = [predict_compiled(c, system, window=win)
                    for c, system, win in items]
    t_machine_pp = time.perf_counter() - t0

    def _pred_key(p):
        return (p.cycles_per_iter, p.elements_per_iter, p.n_iters,
                p.clock_ghz, p.bound, p.seconds)

    machine_exact = (
        list(map(_pred_key, preds)) == list(map(_pred_key, scalar_preds))
    )
    machine_rate = (len(items) / t_machine_total if t_machine_total
                    else float("inf"))

    # -- full-grid row equality: batched sweep vs per-point path --------
    pp_rows = run_sweep(points, mode="serial", batch=False)
    rows_exact = rows == pp_rows

    return {
        "points": len(points),
        "cores": cores,
        "sweep_seconds": round(t_sweep, 6),
        "points_per_sec": round(len(points) / t_sweep, 1),
        "shard": {
            "unique_requests": len(reqs),
            "routing": shard_plan["routing"],
            "workers": shard_plan["workers"],
            "unique_lanes": shard_plan["jobs"],
            "serial_seconds": round(t_serial, 6),
            "sharded_seconds": round(t_sharded, 6),
            "speedup": round(shard_speedup, 2),
            "floor": GRID_SHARD_FLOOR,
            "enforced": shard_enforced,
            "exact": shard_exact,
            # whenever the sharded path was actually selected it must
            # not lose to the serial batch (>= 1.0), and must clear the
            # full floor where the machine can parallelize
            "pass": shard_exact
            and (shard_plan["routing"] == "serial"
                 or shard_speedup >= 1.0)
            and (not shard_enforced or shard_speedup >= GRID_SHARD_FLOOR),
        },
        "ecm_batch": {
            "points": len(ecm_points),
            "per_point_seconds": round(t_pp, 6),
            "batched_seconds": round(t_vec, 6),
            "speedup": round(ecm_speedup, 2),
            "floor": GRID_ECM_FLOOR,
            "exact": ecm_exact,
            "pass": ecm_exact and ecm_speedup >= GRID_ECM_FLOOR,
        },
        "machine_grid": {
            "machines": len(specs),
            "kernels": list(_GRID_MACHINE_KERNELS),
            "points": len(items),
            "skipped": skipped,
            "sweep_seconds": round(t_machine_total, 6),
            "per_point_seconds": round(t_machine_pp, 6),
            "batched_seconds": round(t_machines, 6),
            "points_per_sec": round(machine_rate, 1),
            "rate_floor": GRID_MACHINE_RATE_FLOOR,
            "exact": machine_exact,
            "pass": machine_exact and machine_rate >= GRID_MACHINE_RATE_FLOOR,
        },
        "equivalence_pass": rows_exact,
    }


def run_bench(quick: bool = False, workers: int | None = None,
              tier: str = "all") -> dict:
    """Run every requested configuration and return the bench document."""
    from repro.engine._reference import ReferenceScheduler
    from repro.engine.cache import get_cache
    from repro.engine.scheduler import (
        PipelineScheduler,
        clear_memos,
        schedule_on,
    )

    if tier not in TIERS:
        raise ValueError(f"tier must be one of {TIERS}, got {tier!r}")
    points = _points(quick)
    compiled = _compiled(points)
    engine_tier = tier in ("engine", "all")
    ecm_tier = tier in ("ecm", "all")
    grid_tier = tier in ("grid", "all")

    t_seed = t_point = t_batched = t_warm = t_par = None
    if engine_tier or ecm_tier:
        # every speedup, the analytical tier's included, is quoted
        # against the frozen seed scheduler
        t0 = time.perf_counter()
        for _, _, march, stream, _full in compiled:
            ReferenceScheduler(march).steady_state(stream)
        t_seed = time.perf_counter() - t0

    if engine_tier:
        from repro.engine.batch import clear_tables, schedule_batch
        from repro.engine.sweep import run_sweep

        # memoized tables are dropped first so table warm-up cannot
        # flatter the cold numbers
        clear_memos()
        clear_tables()
        t0 = time.perf_counter()
        for _, _, march, stream, _full in compiled:
            PipelineScheduler(march).steady_state(stream)
        t_point = time.perf_counter() - t0

        reqs = [(march, stream) for _, _, march, stream, _full in compiled]
        clear_memos()
        clear_tables()
        t0 = time.perf_counter()
        schedule_batch(reqs, cache=False)
        t_batched = time.perf_counter() - t0

        get_cache().clear()
        for _, _, march, stream, _full in compiled:  # prime
            schedule_on(march, stream)
        t0 = time.perf_counter()
        for _, _, march, stream, _full in compiled:
            schedule_on(march, stream)
        t_warm = time.perf_counter() - t0

        # the thread fan-out path, batching off (batched has its own row)
        t0 = time.perf_counter()
        run_sweep(points, mode="thread", max_workers=workers, batch=False)
        t_par = time.perf_counter() - t0

    t_ecm = _time_ecm(compiled) if ecm_tier else None
    grid = _run_grid(workers) if grid_tier else None

    equivalence = _check_equivalence(compiled)
    identity_ok = _check_counter_identity(compiled)

    def _round(t: float | None) -> float | None:
        return round(t, 6) if t is not None else None

    speedup_warm = (t_seed / t_warm if t_warm else float("inf")) \
        if engine_tier else None
    speedup_batched = (t_seed / t_batched if t_batched else float("inf")) \
        if engine_tier else None
    speedup_ecm = (t_seed / t_ecm if t_ecm else float("inf")) \
        if ecm_tier else None
    acceptance = {
        "equivalence": equivalence,
        "counter_identity_pass": identity_ok,
    }
    if engine_tier:
        acceptance["warm_speedup_floor"] = SPEEDUP_FLOOR
        acceptance["warm_speedup_pass"] = speedup_warm >= SPEEDUP_FLOOR
        acceptance["batched_speedup_floor"] = BATCH_SPEEDUP_FLOOR
        acceptance["batched_speedup_pass"] = (
            speedup_batched >= BATCH_SPEEDUP_FLOOR
        )
    if ecm_tier:
        acceptance["ecm_speedup_floor"] = ECM_SPEEDUP_FLOOR
        acceptance["ecm_speedup_pass"] = speedup_ecm >= ECM_SPEEDUP_FLOOR
    if grid is not None:
        acceptance["grid_shard_floor"] = GRID_SHARD_FLOOR
        acceptance["grid_shard_pass"] = grid["shard"]["pass"]
        acceptance["grid_ecm_floor"] = GRID_ECM_FLOOR
        acceptance["grid_ecm_pass"] = grid["ecm_batch"]["pass"]
        acceptance["grid_machine_rate_floor"] = GRID_MACHINE_RATE_FLOOR
        acceptance["grid_machine_pass"] = grid["machine_grid"]["pass"]
        acceptance["grid_equivalence_pass"] = grid["equivalence_pass"]

    def _vs_point(t: float | None) -> float | None:
        return round(t_point / t, 2) if t and t_point else None

    doc = {
        "version": BENCH_FORMAT,
        "suite": "fig1+fig2 kernels x toolchains"
                 + (" (quick subset)" if quick else ""),
        "quick": quick,
        "tier": tier,
        "points": len(points),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "seconds": {
            "cold_seed": _round(t_seed),
            "cold_per_point": _round(t_point),
            "batched_cold": _round(t_batched),
            "warm_cache": _round(t_warm),
            "parallel": _round(t_par),
            "ecm_eval": _round(t_ecm),
        },
        "speedup_vs_cold_seed": {
            "cold_per_point": round(t_seed / t_point, 2)
            if engine_tier and t_point else None,
            "batched_cold": round(speedup_batched, 2)
            if engine_tier else None,
            "warm_cache": round(speedup_warm, 2) if engine_tier else None,
            "parallel": round(t_seed / t_par, 2)
            if engine_tier and t_par else None,
            "ecm_eval": round(speedup_ecm, 2) if ecm_tier else None,
        },
        "speedup_vs_cold_per_point": {
            "batched_cold": _vs_point(t_batched),
            "warm_cache": _vs_point(t_warm),
            "parallel": _vs_point(t_par),
            "ecm_eval": _vs_point(t_ecm),
        },
        "acceptance": acceptance,
    }
    if grid is not None:
        doc["grid"] = grid
    return doc


def render(doc: dict) -> str:
    """Format one benchmark document as an aligned text table."""
    secs = doc["seconds"]
    speed = doc["speedup_vs_cold_seed"]
    acc = doc["acceptance"]
    lines = [f"engine bench ({doc['suite']}, {doc['points']} points)"]
    if secs["cold_seed"] is not None:
        lines.append(
            f"  cold seed scheduler : {secs['cold_seed'] * 1e3:9.1f} ms")
    if secs["cold_per_point"] is not None:
        lines.append(
            f"  cold per point      : {secs['cold_per_point'] * 1e3:9.1f} ms"
            f"  ({speed['cold_per_point']:.1f}x)")
    if secs.get("batched_cold") is not None:
        lines.append(
            f"  batched soa engine  : {secs['batched_cold'] * 1e3:9.1f} ms"
            f"  ({speed['batched_cold']:.1f}x)")
    if secs["warm_cache"] is not None:
        lines.append(
            f"  warm schedule cache : {secs['warm_cache'] * 1e3:9.1f} ms"
            f"  ({speed['warm_cache']:.1f}x)")
    if secs["parallel"] is not None:
        lines.append(
            f"  parallel sweep      : {secs['parallel'] * 1e3:9.1f} ms"
            f"  ({speed['parallel']:.1f}x)")
    if secs["ecm_eval"] is not None:
        lines.append(
            f"  analytical ecm tier : {secs['ecm_eval'] * 1e3:9.1f} ms"
            f"  ({speed['ecm_eval']:.1f}x)")
    grid = doc.get("grid")
    if grid is not None:
        shard = grid["shard"]
        ecmb = grid["ecm_batch"]
        lines += [
            f"  grid sweep          : {grid['sweep_seconds'] * 1e3:9.1f} ms"
            f"  ({grid['points']} pts, {grid['points_per_sec']:.0f} pts/s)",
            f"  grid sharded batch  : {shard['sharded_seconds'] * 1e3:9.1f} ms"
            f"  ({shard['speedup']:.1f}x vs serial batch, "
            f"{grid['cores']} core{'s' if grid['cores'] != 1 else ''}, "
            f"routed {shard['routing']})",
            f"  grid ecm batch      : {ecmb['batched_seconds'] * 1e3:9.1f} ms"
            f"  ({ecmb['speedup']:.1f}x vs per-point)",
        ]
        mg = grid["machine_grid"]
        lines.append(
            f"  grid machine axis   : {mg['sweep_seconds'] * 1e3:9.1f} ms"
            f"  ({mg['machines']} machines, {mg['points']} pts, "
            f"{mg['points_per_sec']:.0f} pts/s)")
    lines += [
        f"  golden equivalence  : max rel dev "
        f"{acc['equivalence']['max_rel_deviation']:.2e} "
        f"({'PASS' if acc['equivalence']['pass'] else 'FAIL'})",
        f"  slot identity       : "
        f"{'PASS' if acc['counter_identity_pass'] else 'FAIL'}",
    ]
    if "warm_speedup_pass" in acc:
        lines.append(
            f"  warm speedup floor  : {acc['warm_speedup_floor']:.0f}x "
            f"({'PASS' if acc['warm_speedup_pass'] else 'FAIL'})")
    if "batched_speedup_pass" in acc:
        lines.append(
            f"  batch speedup floor : {acc['batched_speedup_floor']:.0f}x "
            f"({'PASS' if acc['batched_speedup_pass'] else 'FAIL'})")
    if "ecm_speedup_pass" in acc:
        lines.append(
            f"  ecm speedup floor   : {acc['ecm_speedup_floor']:.0f}x "
            f"({'PASS' if acc['ecm_speedup_pass'] else 'FAIL'})")
    if "grid_shard_pass" in acc:
        enforced = doc["grid"]["shard"]["enforced"]
        lines.append(
            f"  grid shard floor    : {acc['grid_shard_floor']:.0f}x "
            + (f"({'PASS' if acc['grid_shard_pass'] else 'FAIL'})"
               if enforced else
               f"(recorded; needs >= {GRID_MIN_CORES} cores to enforce)"))
    if "grid_ecm_pass" in acc:
        lines.append(
            f"  grid ecm floor      : {acc['grid_ecm_floor']:.0f}x "
            f"({'PASS' if acc['grid_ecm_pass'] else 'FAIL'})")
    if "grid_machine_pass" in acc:
        lines.append(
            f"  grid machine floor  : "
            f"{acc['grid_machine_rate_floor']:.0f} pts/s "
            f"({'PASS' if acc['grid_machine_pass'] else 'FAIL'})")
    if "grid_equivalence_pass" in acc:
        lines.append(
            f"  grid equivalence    : "
            f"{'PASS' if acc['grid_equivalence_pass'] else 'FAIL'}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    """CLI entry point for ``python -m repro bench``."""
    quick = "--quick" in argv
    args = [a for a in argv if a != "--quick"]
    out = Path("BENCH_engine.json")
    tier = "all"
    if "--out" in args:
        i = args.index("--out")
        if i + 1 >= len(args):
            print("bench: --out expects a path")
            return 1
        out = Path(args[i + 1])
        del args[i:i + 2]
    if "--tier" in args:
        i = args.index("--tier")
        if i + 1 >= len(args) or args[i + 1] not in TIERS:
            print(f"bench: --tier expects one of {', '.join(TIERS)}")
            return 1
        tier = args[i + 1]
        del args[i:i + 2]
    if args:
        print(f"bench: unknown arguments {args}")
        print("usage: python -m repro bench [--quick] "
              "[--tier engine|ecm|grid|all] [--out PATH]")
        return 1
    doc = run_bench(quick=quick, tier=tier)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(render(doc))
    print(f"wrote {out}")
    acc = doc["acceptance"]
    ok = acc["equivalence"]["pass"] and acc["counter_identity_pass"]
    ok = ok and acc.get("grid_equivalence_pass", True)
    if not quick:
        ok = ok and acc.get("warm_speedup_pass", True)
        ok = ok and acc.get("batched_speedup_pass", True)
        ok = ok and acc.get("ecm_speedup_pass", True)
        ok = ok and acc.get("grid_shard_pass", True)
        ok = ok and acc.get("grid_ecm_pass", True)
        ok = ok and acc.get("grid_machine_pass", True)
    return 0 if ok else 1
