"""One cold pass of a batch workload, in a fresh interpreter.

    python perfbench/pass_child.py WORKLOAD SEED MODE [TRACE_PATH]

MODE is ``pass`` (the timed call, as a user's CLI would make it) or
``oracle`` (the per-point reference answer, computed outside any timed
window).  With TRACE_PATH the layer wrappers of :mod:`tracing` are
installed after the imports and the spans are written there at exit.

Prints one JSON line: the monotonic time the imports finished, the pass
wall time, the peak resident set, a digest of every predicted row and
the workload's own counters.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import time

from common import GRID_MACHINES, digest, rss_mb
from tracing import LAYERS, MODULE_LAYERS

# every module a pass touches, imported before the ready stamp in both
# the timed and the traced run, so setup_s means "imports finished" and
# the traced pass does not save import time the untraced one pays
MODULES = sorted({m for _n, m, _a in LAYERS} | {m for _n, m in MODULE_LAYERS}
                 | {"repro.validate.bands", "repro.machine.grid",
                    "repro.engine.sweep"})

SWEEP_VARIANTS = (("engine", None), ("engine", 16), ("engine", 24),
                  ("engine", 48), ("ecm", None), ("ecm", 24))


def sweep_points(seed: int) -> list[tuple]:
    """15 kernels x 5 toolchains x 6 (tier, window) = 450 points, in an
    order drawn from *seed*."""
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.kernels.catalog import ALL_KERNEL_NAMES

    points = [(k, tc, win, tier, None) for k in ALL_KERNEL_NAMES
              for tc in TOOLCHAINS for tier, win in SWEEP_VARIANTS]
    random.Random(seed).shuffle(points)
    return points


def grid_rows(items, preds) -> list[dict]:
    """The rows ``run_machine_grid(include_rows=True)`` reports."""
    return [{"kernel": c.loop.name, "machine": c.march.name,
             "toolchain": c.toolchain.name, "seconds": p.seconds,
             "cycles_per_element": p.cycles_per_element, "bound": p.bound}
            for (c, _system, _win), p in zip(items, preds)]


def serve_hot_set() -> list[dict]:
    """The 300 distinct serve requests: 15 kernels x 5 toolchains x
    {engine, engine window 24, ecm 1 thread, ecm 4 threads}."""
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.kernels.catalog import ALL_KERNEL_NAMES

    variants = ({"tier": "engine"}, {"tier": "engine", "window": 24},
                {"tier": "ecm", "threads": 1}, {"tier": "ecm", "threads": 4})
    return [{"kernel": k, "toolchain": tc, **v} for k in ALL_KERNEL_NAMES
            for tc in TOOLCHAINS for v in variants]


def serve_expected(doc: dict) -> dict:
    """The per-point answer to one serve request: a private compile,
    then ``schedule_on`` or ``predict_compiled`` directly."""
    from repro.compilers.codegen import compile_loop
    from repro.compilers.toolchains import get_toolchain
    from repro.ecm.model import predict_compiled
    from repro.engine.scheduler import schedule_on
    from repro.kernels.catalog import build_kernel
    from repro.machine.microarch import A64FX, SKYLAKE_6140
    from repro.machine.systems import get_system
    from repro.perf.profile import default_system_for

    tc = get_toolchain(doc["toolchain"])
    march = SKYLAKE_6140 if tc.target == "x86" else A64FX
    compiled = compile_loop(build_kernel(doc["kernel"]), tc, march)
    window = doc.get("window")
    row = {"loop": doc["kernel"], "toolchain": tc.name, "march": march.name,
           "window": march.window if window is None else window,
           "tier": doc["tier"],
           "model_cycles_per_element": compiled.cycles_per_element}
    if doc["tier"] == "ecm":
        system = get_system(default_system_for(doc["toolchain"]))
        pred = predict_compiled(compiled, system, window=window,
                                active_cores_per_domain=doc["threads"])
        row.update({"system": system.name, "threads": doc["threads"],
                    "cycles_per_iter": pred.cycles_per_iter,
                    "cycles_per_element": pred.cycles_per_element,
                    "ipc": pred.incore.n_instrs / pred.cycles_per_iter,
                    "bound": pred.bound})
    else:
        sched = schedule_on(march, compiled.stream, window)
        row.update({"cycles_per_iter": sched.cycles_per_iter,
                    "cycles_per_element": sched.cycles_per_element,
                    "ipc": sched.ipc, "bound": sched.bound})
    return row


def run_pass(workload: str, seed: int) -> tuple[list, dict]:
    if workload == "sweep_cold":
        from repro.engine.sweep import run_sweep

        points = sweep_points(seed)
        return run_sweep(points), {"points": len(points)}
    if workload == "paper_bands":
        from repro.validate.bands import score_bands

        entries = score_bands()
        return entries, {
            "points": len(entries),
            "bands_in": sum(e["in_band"] is True for e in entries),
            "bands_out": sum(e["in_band"] is False for e in entries),
        }
    if workload == "design_grid":
        from repro.machine.grid import run_machine_grid

        doc = run_machine_grid(machines=GRID_MACHINES, include_rows=True)
        return doc["rows"], {"points": doc["points"],
                             "ecm_points": doc["ecm_points"],
                             "engine_points": doc["engine_points"]}
    raise SystemExit(f"unknown pass workload {workload!r}")


def run_oracle(workload: str, seed: int) -> tuple[list, dict]:
    if workload == "sweep_cold":
        from repro.engine.sweep import run_sweep

        return run_sweep(sweep_points(seed), batch=False), {}
    if workload == "design_grid":
        from repro.ecm.model import predict_compiled
        from repro.machine.grid import machine_grid_predictions
        from repro.machine.spec import GRID_BASES, grid_specs

        items, _batched, _skipped = machine_grid_predictions(
            grid_specs(GRID_MACHINES, GRID_BASES))
        preds = [predict_compiled(c, system, window=win)
                 for c, system, win in items]
        return grid_rows(items, preds), {}
    if workload == "serve_hot":
        hot = serve_hot_set()
        return [serve_expected(doc) for doc in hot], {"hot": hot}
    raise SystemExit(f"unknown oracle workload {workload!r}")


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    trace_path = argv[3] if len(argv) > 3 else None
    for module in MODULES:
        importlib.import_module(module)
    ready = time.monotonic()

    rec = None
    if trace_path:
        from tracing import Recorder, cache_stats, install

        rec = Recorder()
        install(rec)

    t0 = time.perf_counter()
    if mode == "oracle":
        rows, extra = run_oracle(workload, seed)
    elif rec is not None:
        frame = rec.begin("pass")
        try:
            rows, extra = run_pass(workload, seed)
        finally:
            rec.end(frame)
    else:
        rows, extra = run_pass(workload, seed)
    pass_s = time.perf_counter() - t0

    if rec is not None:
        rec.mark(kind="cache", **cache_stats())
        rec.dump(trace_path)
    if workload == "serve_hot":
        extra["expected"] = rows
    print(json.dumps({"ready": ready, "pass_s": pass_s, "rss_mb": rss_mb(),
                      "digest": digest(rows), "rows": len(rows),
                      **extra}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
