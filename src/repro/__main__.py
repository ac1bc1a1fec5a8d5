"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the available experiments (tables/figures).
``run <id> [...]``
    Regenerate one or more experiments as text tables (``run all`` for
    everything).
``asm <loop> <toolchain>``
    Show the pseudo-assembly + schedule for a catalogued kernel under
    one toolchain (suite loops simple/predicate/gather/scatter/
    short_gather/short_scatter, math loops recip/sqrt/exp/sin/pow, and
    the sparse/stencil workloads spmv_crs/spmv_sell/stencil2d/
    stencil3d).
``pipeline <loop> <toolchain>``
    Render the pipeline diagram of the compiled loop's first iterations.
``profile <loop> [toolchain] [--system KEY] [--n LEN] [--json]``
    Run a catalogued kernel under the PMU-style counter subsystem and
    print an ECM-style breakdown (``--json`` for the machine-readable
    profile document; see docs/PROFILING.md).
``ecm <kernel> [toolchain] [--system KEY] [--n LEN] [--json] [--compare]``
    Predict a catalogued kernel analytically with the ECM model — no
    simulation — and print the in-core bounds, per-boundary traffic and
    composed runtime (``--compare`` also simulates and prints the
    deviation; ``--json`` emits the ``repro.ecm/1`` document; see
    docs/MODELING.md).
``verify``
    Run the real-numerics headline checks (NPB EP/CG class S official
    verification, HPL residual, FFT parity, Sedov exponent).
``bench [--quick] [--tier engine|ecm|grid|all] [--out PATH]``
    Time the prediction tiers (cold seed scheduler, per-point
    scheduling, batched SoA engine, warm schedule cache, parallel sweep,
    analytical ECM evaluation, and the ``grid`` tier's >=512-point
    mixed-tier sweep with sharded batches and vectorized ECM) over the
    Fig. 1/2 kernel set and write ``BENCH_engine.json``; the full run
    exits non-zero if equivalence or a speedup floor regresses (see
    docs/PERFORMANCE.md).
``serve [--stdin] [--host H] [--port N] [--batch-window MS] [--max-batch N] [--workers N]``
    Run the persistent prediction server: JSON requests over a local
    socket (default; binds 127.0.0.1 and prints the address) or
    stdin/stdout lines (``--stdin``), answered with versioned
    ``repro.serve/1`` responses.  Concurrent requests coalesce into
    micro-batches over the shared schedule/compile caches; identical
    in-flight requests deduplicate (see docs/SERVING.md).
``serve-bench [--quick] [--out PATH]``
    Measure serve throughput against a no-reuse one-request-at-a-time
    baseline at several concurrency levels and write
    ``BENCH_serve.json``; exits non-zero if the speedup floor is
    breached or any batched response deviates from the baseline.
``cache [show|clear] [--json]``
    Inspect or drop the content-addressed schedule and compile caches
    (clears the schedule cache's on-disk layer too when
    ``REPRO_CACHE_DIR`` is set); ``show --json`` emits the versioned
    ``repro.cache/1`` document including the serve-session counters.
``validate [--seeds N] [--no-bands] [--json] [--out PATH]``
    Run the model-validation passes (IR verifier, scheduler invariants,
    counter reconciliation, differential fuzz vs the golden reference,
    machine-spec fuzz, paper-band scoring) and emit a
    ``repro.validate/1`` report; exits nonzero on any violation (see
    docs/VALIDATION.md).
``sweep [--kernels K,..] [--toolchains T,..] [--machine KEY] [--tier engine|ecm] [--json]``
    Sweep kernels x toolchains through the prediction tiers and print
    one row per point; ``--machine`` retargets every point at a preset
    machine from the declarative catalog instead of the default
    A64FX/Skylake pairing (see docs/MACHINES.md).
``sweep --grid [--machines N] [--kernels K,..] [--json] [--out PATH]``
    Design-space sweep: enumerate N hypothetical machines (vector
    length x issue width x bandwidth x window x L2 around the A64FX,
    Skylake and RVV presets), score every (machine, kernel) point
    through the batched tiers and report throughput plus the winning
    machine per kernel as a ``repro.sweep-grid/1`` document.
``machines [list | show <key> [--json] | report [--json] [--out PATH]]``
    Inspect the declarative machine catalog: ``list`` the preset specs,
    ``show`` one spec (``--json`` emits the ``repro.machine-spec/1``
    document), or build the per-kernel crossover ``report`` — which
    preset wins each paper kernel and the A64FX-over-Skylake ratio
    (``repro.machines/1``; see docs/MACHINES.md).
"""

from __future__ import annotations

import sys

from repro.bench.harness import EXPERIMENTS, EXTRAS
from repro.bench.report import render_experiment

_USAGE = __doc__ or ""


def _cmd_list() -> int:
    print("paper artifacts:")
    for exp_id, (title, _) in EXPERIMENTS.items():
        print(f"  {exp_id:<10} {title}")
    print("extras:")
    for exp_id, (title, _) in EXTRAS.items():
        print(f"  {exp_id:<10} {title}")
    return 0


def _cmd_run(args: list[str]) -> int:
    ids = list(EXPERIMENTS) if args == ["all"] or not args else args
    if args == ["extras"]:
        ids = list(EXTRAS)
    for exp_id in ids:
        if exp_id not in EXPERIMENTS and exp_id not in EXTRAS:
            print(f"unknown experiment {exp_id!r}; try 'python -m repro list'")
            return 1
        print(render_experiment(exp_id))
    return 0


def _resolve_loop_toolchain(args: list[str]):
    from repro.compilers.codegen import compile_loop
    from repro.compilers.toolchains import get_toolchain
    from repro.kernels.catalog import ALL_KERNEL_NAMES, build_kernel
    from repro.machine.microarch import A64FX, SKYLAKE_6140

    if len(args) != 2:
        print("usage: python -m repro asm|pipeline <loop> <toolchain>")
        print(f"loops: {', '.join(ALL_KERNEL_NAMES)}")
        return None
    loop_name, tc_name = args
    tc = get_toolchain(tc_name)
    march = SKYLAKE_6140 if tc.target == "x86" else A64FX
    return compile_loop(build_kernel(loop_name), tc, march)


def _cmd_asm(args: list[str]) -> int:
    from repro.compilers.asm import render_compiled_loop

    compiled = _resolve_loop_toolchain(args)
    if compiled is None:
        return 1
    print(render_compiled_loop(compiled))
    return 0


def _cmd_pipeline(args: list[str]) -> int:
    from repro.engine.trace import render_pipeline_diagram

    compiled = _resolve_loop_toolchain(args)
    if compiled is None:
        return 1
    print(render_pipeline_diagram(compiled.march, compiled.stream))
    return 0


def _parse_kernel_flags(cmd: str, args: list[str]):
    """Shared ``<kernel> [toolchain] [--system KEY] [--n LEN]`` parsing
    for the ``profile`` and ``ecm`` commands.

    Returns ``(kernel, toolchain, system, n)`` or ``None`` after
    printing a usage/error message (bare flags like ``--json`` must be
    stripped by the caller first).
    """
    from repro.kernels.catalog import ALL_KERNEL_NAMES

    system: str | None = None
    n: int | None = None
    positional: list[str] = []
    i = 0
    while i < len(args):
        if args[i] == "--system" and i + 1 < len(args):
            system = args[i + 1]
            i += 2
        elif args[i] == "--n" and i + 1 < len(args):
            try:
                n = int(args[i + 1])
            except ValueError:
                print(f"{cmd} failed: --n expects an integer, "
                      f"got {args[i + 1]!r}")
                return None
            i += 2
        else:
            positional.append(args[i])
            i += 1
    if not positional or len(positional) > 2:
        print(f"usage: python -m repro {cmd} <kernel> [toolchain] "
              f"[--system KEY] [--n LEN] [--json]")
        print(f"kernels: {', '.join(ALL_KERNEL_NAMES)}")
        return None
    toolchain = positional[1] if len(positional) == 2 else "fujitsu"
    return positional[0], toolchain, system, n


def _cmd_profile(args: list[str]) -> int:
    from repro.perf.profile import profile_kernel
    from repro.perf.report import profile_to_json_str

    as_json = "--json" in args
    parsed = _parse_kernel_flags(
        "profile", [a for a in args if a != "--json"]
    )
    if parsed is None:
        return 1
    kernel, toolchain, system, n = parsed
    try:
        prof = profile_kernel(kernel, toolchain, system, n=n)
    except (KeyError, ValueError) as exc:
        print(f"profile failed: {exc}")
        return 1
    print(profile_to_json_str(prof.to_json()) if as_json else prof.render())
    return 0


def _cmd_ecm(args: list[str]) -> int:
    import json

    from repro.ecm import (
        compare_kernel, predict_kernel, prediction_to_json,
        render_comparison, render_prediction,
    )

    as_json = "--json" in args
    compare = "--compare" in args
    parsed = _parse_kernel_flags(
        "ecm", [a for a in args if a not in ("--json", "--compare")]
    )
    if parsed is None:
        return 1
    kernel, toolchain, system, n = parsed
    try:
        if compare:
            cmp = compare_kernel(kernel, toolchain, system, n=n)
            pred = cmp.prediction
        else:
            cmp = None
            pred = predict_kernel(kernel, toolchain, system, n=n)
    except (KeyError, ValueError) as exc:
        print(f"ecm failed: {exc}")
        return 1
    if as_json:
        doc = prediction_to_json(pred)
        if cmp is not None:
            doc["engine_seconds"] = cmp.engine_seconds
            doc["deviation"] = cmp.deviation
            doc["tolerance"] = cmp.tolerance
            doc["within_tolerance"] = cmp.within_tolerance
        print(json.dumps(doc, indent=2))
    else:
        print(render_prediction(pred))
        if cmp is not None:
            print()
            print(render_comparison(cmp))
    return 0 if cmp is None or cmp.within_tolerance else 1


def _cmd_verify() -> int:
    import numpy as np

    from repro.apps.lulesh.hydro import SedovSpherical
    from repro.hpcc.fft import fft_benchmark
    from repro.hpcc.hpl import hpl_benchmark
    from repro.npb.cg import run_cg
    from repro.npb.ep import run_ep

    failures = 0

    ep = run_ep("S")
    print(f"NPB EP class S  : {'OK' if ep.verified else 'FAIL'} "
          f"(sx={ep.sx:.9e})")
    failures += not ep.verified

    cg = run_cg("S")
    print(f"NPB CG class S  : {'OK' if cg.verified else 'FAIL'} "
          f"(zeta={cg.zeta:.10f})")
    failures += not cg.verified

    hpl = hpl_benchmark(n=256)
    print(f"HPL residual    : {'OK' if hpl.passed else 'FAIL'} "
          f"({hpl.scaled_residual:.4f} < 16)")
    failures += not hpl.passed

    fft = fft_benchmark(log2n=14)
    ok = fft.max_error < 1e-12
    print(f"FFT vs numpy    : {'OK' if ok else 'FAIL'} "
          f"(max rel err {fft.max_error:.2e})")
    failures += not ok

    s = SedovSpherical(nzones=150)
    ts, rs = [], []
    for t_end in (0.02, 0.04, 0.08, 0.16, 0.32):
        s.run(t_end)
        ts.append(s.t)
        rs.append(s.shock_radius())
    slope = float(np.polyfit(np.log(ts), np.log(rs), 1)[0])
    ok = abs(slope - 0.4) < 0.04
    print(f"Sedov exponent  : {'OK' if ok else 'FAIL'} "
          f"(t^{slope:.3f} vs t^0.400)")
    failures += not ok

    return 1 if failures else 0


def _cmd_bench(args: list[str]) -> int:
    from repro.bench.enginebench import main as bench_main

    return bench_main(args)


def _parse_serve_flags(args: list[str]) -> dict:
    """Parse ``serve`` flags -> option dict (raises ValueError)."""
    opts: dict = {"stdin": False, "host": "127.0.0.1", "port": 0,
                  "batch_window_ms": 2.0, "max_batch": 64, "workers": None}
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--stdin":
            opts["stdin"] = True
            i += 1
        elif a in ("--host", "--port", "--batch-window", "--max-batch",
                   "--workers"):
            if i + 1 >= len(args):
                raise ValueError(f"{a} expects a value")
            value = args[i + 1]
            try:
                if a == "--host":
                    opts["host"] = value
                elif a == "--port":
                    opts["port"] = int(value)
                elif a == "--batch-window":
                    opts["batch_window_ms"] = float(value)
                    if opts["batch_window_ms"] < 0:
                        raise ValueError
                else:
                    opts["max_batch" if a == "--max-batch"
                         else "workers"] = int(value)
                    if int(value) < 1:
                        raise ValueError
            except ValueError:
                raise ValueError(
                    f"{a} expects a valid value, got {value!r}") from None
            i += 2
        else:
            raise ValueError(f"unknown serve argument {a!r}")
    return opts


def _cmd_serve(args: list[str]) -> int:
    from repro.serve import PredictionServer, TcpFrontend, serve_stdio

    try:
        opts = _parse_serve_flags(args)
    except ValueError as exc:
        print(f"serve failed: {exc}")
        print("usage: python -m repro serve [--stdin] [--host H] "
              "[--port N] [--batch-window MS] [--max-batch N] "
              "[--workers N]")
        return 1
    server = PredictionServer(
        batch_window=opts["batch_window_ms"] / 1e3,
        max_batch=opts["max_batch"],
        workers=opts["workers"],
    )
    with server:
        if opts["stdin"]:
            return serve_stdio(server)
        with TcpFrontend(server, opts["host"], opts["port"]) as frontend:
            host, port = frontend.address
            print(f"serving repro.serve/1 on {host}:{port}", flush=True)
            try:
                frontend.wait()
            except KeyboardInterrupt:
                pass
    return 0


def _cmd_serve_bench(args: list[str]) -> int:
    from repro.serve.bench import main as serve_bench_main

    return serve_bench_main(args)


def _cmd_cache(args: list[str]) -> int:
    import json

    from repro.compilers.cache import get_compile_cache
    from repro.engine.cache import get_cache

    as_json = "--json" in args
    args = [a for a in args if a != "--json"]
    action = args[0] if args else "show"
    cache = get_cache()
    compile_cache = get_compile_cache()
    if action == "clear":
        dropped = cache.clear(disk=True)
        compiled_dropped = compile_cache.clear()
        print(f"schedule cache cleared ({dropped} entries dropped)")
        print(f"compile cache cleared ({compiled_dropped} entries dropped)")
        return 0
    if action == "show":
        if as_json:
            from repro.serve.server import session_stats

            doc = {
                "format": "repro.cache/1",
                "schedule": {
                    **{k: int(v) for k, v in cache.stats().items()},
                    "disk_dir": (str(cache.disk_dir)
                                 if cache.disk_dir else None),
                },
                "compile": {
                    k: int(v) for k, v in compile_cache.stats().items()
                },
                "serve": session_stats(),
            }
            print(json.dumps(doc, indent=2))
            return 0
        stats = cache.stats()
        print("schedule cache:")
        for name in ("entries", "capacity", "hits", "misses",
                     "disk_hits", "disk_misses", "disk_writes"):
            print(f"  {name:<11} {int(stats[name])}")
        disk = cache.disk_dir or "(memory only; set REPRO_CACHE_DIR to persist)"
        print(f"  disk dir    {disk}")
        cstats = compile_cache.stats()
        print("compile cache:")
        for name in ("entries", "capacity", "hits", "misses"):
            print(f"  {name:<11} {int(cstats[name])}")
        return 0
    print(f"unknown cache action {action!r}; "
          "usage: python -m repro cache [show|clear]")
    return 1


def _cmd_validate(args: list[str]) -> int:
    import json

    from repro.validate import validate_all

    try:
        seeds, bands, as_json, out = _parse_validate_flags(args)
    except ValueError as exc:
        print(f"validate failed: {exc}")
        print("usage: python -m repro validate [--seeds N] [--no-bands] "
              "[--json] [--out PATH]")
        return 1
    report = validate_all(seeds=seeds, bands=bands)
    doc = report.to_json()
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out}")
    print(json.dumps(doc, indent=2) if as_json else report.render())
    return 0 if report.ok else 1


def _parse_validate_flags(
    args: list[str],
) -> tuple[int, bool, bool, str | None]:
    """Parse ``validate`` flags -> (seeds, bands, as_json, out)."""
    seeds = 25
    bands = True
    as_json = False
    out: str | None = None
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--seeds" and i + 1 < len(args):
            try:
                seeds = int(args[i + 1])
            except ValueError:
                raise ValueError(f"--seeds expects an integer, "
                                 f"got {args[i + 1]!r}") from None
            i += 2
        elif a == "--no-bands":
            bands = False
            i += 1
        elif a == "--json":
            as_json = True
            i += 1
        elif a == "--out" and i + 1 < len(args):
            out = args[i + 1]
            i += 2
        else:
            raise ValueError(f"unknown argument {a!r}")
    return seeds, bands, as_json, out


def _parse_sweep_flags(args: list[str]) -> dict:
    """Parse ``sweep`` flags -> option dict (raises ValueError)."""
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.kernels.catalog import ALL_KERNEL_NAMES
    from repro.machine.spec import MACHINE_SPECS

    opts: dict = {"grid": False, "machines": 1000, "kernels": None,
                  "toolchains": None, "machine": None, "tier": "engine",
                  "json": False, "out": None}
    i = 0
    while i < len(args):
        a = args[i]
        if a == "--grid":
            opts["grid"] = True
            i += 1
        elif a == "--json":
            opts["json"] = True
            i += 1
        elif a in ("--machines", "--kernels", "--toolchains", "--machine",
                   "--tier", "--out"):
            if i + 1 >= len(args):
                raise ValueError(f"{a} expects a value")
            value = args[i + 1]
            if a == "--machines":
                try:
                    opts["machines"] = int(value)
                except ValueError:
                    raise ValueError(
                        f"--machines expects an integer, got {value!r}"
                    ) from None
                if opts["machines"] < 1:
                    raise ValueError("--machines expects >= 1")
            elif a == "--kernels":
                kernels = [k for k in value.split(",") if k]
                for k in kernels:
                    if k not in ALL_KERNEL_NAMES:
                        raise ValueError(f"unknown kernel {k!r}")
                opts["kernels"] = kernels
            elif a == "--toolchains":
                tcs = [t.lower() for t in value.split(",") if t]
                for t in tcs:
                    if t not in TOOLCHAINS:
                        raise ValueError(f"unknown toolchain {t!r}")
                opts["toolchains"] = tcs
            elif a == "--machine":
                if value.lower() not in MACHINE_SPECS:
                    raise ValueError(
                        f"unknown machine {value!r}; "
                        f"available: {', '.join(sorted(MACHINE_SPECS))}")
                opts["machine"] = value.lower()
            elif a == "--tier":
                if value not in ("engine", "ecm"):
                    raise ValueError(
                        f"unknown tier {value!r} (expected engine or ecm)")
                opts["tier"] = value
            else:
                opts["out"] = value
            i += 2
        else:
            raise ValueError(f"unknown sweep argument {a!r}")
    if opts["grid"] and (opts["machine"] or opts["toolchains"]):
        raise ValueError(
            "--grid enumerates its own machines/toolchains; "
            "--machine/--toolchains only apply to preset sweeps")
    if not opts["grid"] and opts["out"] is not None:
        raise ValueError("--out only applies to --grid")
    return opts


def _cmd_sweep(args: list[str]) -> int:
    import json

    try:
        opts = _parse_sweep_flags(args)
    except ValueError as exc:
        print(f"sweep failed: {exc}")
        print("usage: python -m repro sweep [--kernels K,..] "
              "[--toolchains T,..] [--machine KEY] [--tier engine|ecm] "
              "[--json]\n       python -m repro sweep --grid "
              "[--machines N] [--kernels K,..] [--json] [--out PATH]")
        return 1

    if opts["grid"]:
        from repro.machine.grid import DEFAULT_KERNELS, run_machine_grid

        doc = run_machine_grid(
            machines=opts["machines"],
            kernels=tuple(opts["kernels"] or DEFAULT_KERNELS),
        )
        if opts["out"] is not None:
            with open(opts["out"], "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {opts['out']}")
        if opts["json"]:
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        print(f"design-space sweep ({doc['machines']} machines x "
              f"{len(doc['kernels'])} kernels)")
        print(f"  ecm points    : {doc['ecm_points']}"
              + (f"  (+{doc['skipped']} machine/kernel points skipped)"
                 if doc["skipped"] else ""))
        print(f"  engine points : {doc['engine_points']}")
        print(f"  throughput    : {doc['points_per_sec']:.0f} pts/s "
              f"({doc['seconds'] * 1e3:.1f} ms)")
        print("  best machine per kernel:")
        for kernel, win in doc["winners"].items():
            print(f"    {kernel:<10} {win['machine']:<28} "
                  f"[{win['toolchain']}]  "
                  f"{win['cycles_per_element']:8.3f} cyc/elem  "
                  f"({win['bound']}-bound)")
        return 0

    from repro.compilers.toolchains import TOOLCHAINS
    from repro.engine.sweep import run_sweep

    kernels = opts["kernels"] or ["simple", "gather", "sqrt", "exp"]
    toolchains = opts["toolchains"]
    if toolchains is None:
        if opts["machine"] is not None:
            from repro.machine.grid import _toolchains_for
            from repro.machine.spec import get_machine_spec

            spec = get_machine_spec(opts["machine"])
            toolchains = [tc.name for tc in _toolchains_for(
                spec.build_core())]
        else:
            toolchains = list(TOOLCHAINS)
    points = [(k, tc, None, opts["tier"], opts["machine"])
              for k in kernels for tc in toolchains]
    try:
        rows = run_sweep(points)
    except (KeyError, ValueError) as exc:
        print(f"sweep failed: {exc}")
        return 1
    if opts["json"]:
        print(json.dumps(rows, indent=2))
        return 0
    header = (f"{'loop':<14}{'toolchain':<10}{'march':<26}"
              f"{'cyc/elem':>10}  {'ipc':>5}  bound")
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['loop']:<14}{row['toolchain']:<10}"
              f"{row['march']:<26}{row['cycles_per_element']:>10.3f}  "
              f"{row['ipc']:>5.2f}  {row['bound']}")
    return 0


def _cmd_machines(args: list[str]) -> int:
    import json

    from repro.machine.spec import MACHINE_SPECS

    as_json = "--json" in args
    rest = [a for a in args if a != "--json"]
    action = rest[0] if rest else "list"

    if action == "list" and len(rest) <= 1:
        if as_json:
            print("machines failed: --json applies to show/report")
            return 1
        print(f"{'key(s)':<24}{'isa':<8}{'bits':>5}{'cores':>6}  system")
        seen: dict[int, list[str]] = {}
        for key, spec in MACHINE_SPECS.items():
            seen.setdefault(id(spec), []).append(key)
        for spec_id, keys in seen.items():
            spec = MACHINE_SPECS[keys[0]]
            system = (spec.system_name or spec.name) if spec.has_system \
                else "(core-only)"
            print(f"{','.join(keys):<24}{spec.isa:<8}"
                  f"{spec.vector_bits:>5}{spec.cores:>6}  {system}")
        return 0

    if action == "show":
        if len(rest) != 2:
            print("usage: python -m repro machines show <key> [--json]")
            return 1
        from repro.machine.spec import get_machine_spec

        try:
            spec = get_machine_spec(rest[1])
        except KeyError as exc:
            print(f"machines failed: {exc.args[0]}")
            return 1
        if as_json:
            print(spec.to_json())
            return 0
        march = spec.build_core()
        print(f"{spec.name}  ({rest[1]})")
        print(f"  isa            {spec.isa} x {spec.vector_bits} bits "
              f"({march.lanes_f64} f64 lanes)")
        print(f"  clock          {spec.clock_ghz} GHz "
              f"(all-core {spec.allcore_clock_ghz} GHz)")
        print(f"  issue/window   {spec.issue_width}-wide, "
              f"{spec.window}-entry")
        print(f"  peak/core      {march.peak_gflops_core():.1f} GF/s")
        print(f"  mem overlap    {spec.mem_overlap}")
        if spec.has_system:
            system = spec.build_system()
            print(f"  cores          {spec.cores}")
            print(f"  node stream bw {system.node_stream_bw_gbs:.0f} GB/s")
            print(f"  system         {system.name}")
        else:
            print("  system         (core-only preset)")
        return 0

    if action == "report":
        from repro.machine.crossover import crossover_report, render

        out = None
        tail = rest[1:]
        if tail and tail[0] == "--out":
            if len(tail) != 2:
                print("machines failed: --out expects a path")
                return 1
            out = tail[1]
        elif tail:
            print(f"machines failed: unknown report argument {tail[0]!r}")
            return 1
        report = crossover_report()
        if out is not None:
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {out}")
        print(json.dumps(report, indent=2, sort_keys=True) if as_json
              else render(report))
        return 0

    print(f"unknown machines action {action!r}; usage: python -m repro "
          "machines [list | show <key> [--json] | report [--json] "
          "[--out PATH]]")
    return 1


#: command registry: name -> (takes_args, handler); handlers that take no
#: arguments reject any (parse_command enforces this statically)
COMMANDS: dict[str, tuple[bool, object]] = {
    "list": (False, _cmd_list),
    "run": (True, _cmd_run),
    "asm": (True, _cmd_asm),
    "pipeline": (True, _cmd_pipeline),
    "profile": (True, _cmd_profile),
    "ecm": (True, _cmd_ecm),
    "verify": (False, _cmd_verify),
    "bench": (True, _cmd_bench),
    "serve": (True, _cmd_serve),
    "serve-bench": (True, _cmd_serve_bench),
    "cache": (True, _cmd_cache),
    "validate": (True, _cmd_validate),
    "sweep": (True, _cmd_sweep),
    "machines": (True, _cmd_machines),
}


def parse_command(argv: list[str]) -> str | None:
    """Statically validate a CLI invocation without executing it.

    Returns the command name (``None`` for the bare/help invocation), or
    raises ``ValueError`` describing what is wrong.  This is what keeps
    every ``python -m repro ...`` line quoted in the documentation
    honest: ``tests/test_docs.py`` runs each one through here.
    """
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.kernels.catalog import ALL_KERNEL_NAMES

    if not argv or argv[0] in ("-h", "--help", "help"):
        return None
    cmd, *rest = argv
    if cmd not in COMMANDS:
        raise ValueError(f"unknown command {cmd!r}")
    takes_args, _handler = COMMANDS[cmd]
    if not takes_args and rest:
        raise ValueError(f"{cmd} takes no arguments, got {rest}")
    if cmd == "run":
        for exp_id in rest:
            if exp_id not in EXPERIMENTS and exp_id not in EXTRAS \
                    and exp_id not in ("all", "extras"):
                raise ValueError(f"unknown experiment {exp_id!r}")
    elif cmd in ("asm", "pipeline"):
        if len(rest) != 2:
            raise ValueError(f"{cmd} expects <loop> <toolchain>")
        loop, tc = rest
        if loop not in ALL_KERNEL_NAMES:
            raise ValueError(f"unknown loop {loop!r}")
        if tc.lower() not in TOOLCHAINS:
            raise ValueError(f"unknown toolchain {tc!r}")
    elif cmd in ("profile", "ecm"):
        flags = ("--json",) if cmd == "profile" else ("--json", "--compare")
        positional = []
        i = 0
        while i < len(rest):
            if rest[i] in ("--system", "--n"):
                if i + 1 >= len(rest):
                    raise ValueError(f"{rest[i]} expects a value")
                if rest[i] == "--n":
                    int(rest[i + 1])
                i += 2
            elif rest[i] in flags:
                i += 1
            elif rest[i].startswith("-"):
                raise ValueError(f"unknown flag {rest[i]!r}")
            else:
                positional.append(rest[i])
                i += 1
        if not positional or len(positional) > 2:
            raise ValueError(f"{cmd} expects <kernel> [toolchain]")
        if positional[0] not in ALL_KERNEL_NAMES:
            raise ValueError(f"unknown kernel {positional[0]!r}")
        if len(positional) == 2 and positional[1].lower() not in TOOLCHAINS:
            raise ValueError(f"unknown toolchain {positional[1]!r}")
    elif cmd == "bench":
        i = 0
        while i < len(rest):
            if rest[i] == "--quick":
                i += 1
            elif rest[i] == "--out":
                if i + 1 >= len(rest):
                    raise ValueError("--out expects a path")
                i += 2
            elif rest[i] == "--tier":
                if i + 1 >= len(rest):
                    raise ValueError("--tier expects a value")
                if rest[i + 1] not in ("engine", "ecm", "grid", "all"):
                    raise ValueError(
                        f"unknown tier {rest[i + 1]!r} "
                        f"(expected engine, ecm, grid or all)")
                i += 2
            else:
                raise ValueError(f"unknown bench argument {rest[i]!r}")
    elif cmd == "serve":
        _parse_serve_flags(rest)
    elif cmd == "serve-bench":
        i = 0
        while i < len(rest):
            if rest[i] == "--quick":
                i += 1
            elif rest[i] == "--out":
                if i + 1 >= len(rest):
                    raise ValueError("--out expects a path")
                i += 2
            else:
                raise ValueError(
                    f"unknown serve-bench argument {rest[i]!r}")
    elif cmd == "cache":
        actions = [a for a in rest if a != "--json"]
        if actions and (len(actions) > 1
                        or actions[0] not in ("show", "clear")):
            raise ValueError(f"cache expects [show|clear], got {rest}")
        if "--json" in rest and actions == ["clear"]:
            raise ValueError("cache --json only applies to show")
    elif cmd == "validate":
        _parse_validate_flags(rest)
    elif cmd == "sweep":
        _parse_sweep_flags(rest)
    elif cmd == "machines":
        from repro.machine.spec import MACHINE_SPECS

        actions = [a for a in rest if a != "--json"]
        action = actions[0] if actions else "list"
        if action == "list":
            if len(actions) > 1:
                raise ValueError(f"machines list takes no arguments, "
                                 f"got {actions[1:]}")
            if "--json" in rest:
                raise ValueError("machines --json applies to show/report")
        elif action == "show":
            if len(actions) != 2:
                raise ValueError("machines show expects <key>")
            if actions[1].lower() not in MACHINE_SPECS:
                raise ValueError(f"unknown machine {actions[1]!r}")
        elif action == "report":
            tail = actions[1:]
            if tail and (tail[0] != "--out" or len(tail) != 2):
                raise ValueError(
                    f"unknown report arguments {tail!r} "
                    "(expected [--out PATH])")
        else:
            raise ValueError(f"unknown machines action {action!r}")
    return cmd


def main(argv: list[str]) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(_USAGE)
        return 0
    cmd, *rest = argv
    if cmd == "list":
        return _cmd_list()
    if cmd == "run":
        return _cmd_run(rest)
    if cmd == "asm":
        return _cmd_asm(rest)
    if cmd == "pipeline":
        return _cmd_pipeline(rest)
    if cmd == "profile":
        return _cmd_profile(rest)
    if cmd == "ecm":
        return _cmd_ecm(rest)
    if cmd == "verify":
        return _cmd_verify()
    if cmd == "bench":
        return _cmd_bench(rest)
    if cmd == "serve":
        return _cmd_serve(rest)
    if cmd == "serve-bench":
        return _cmd_serve_bench(rest)
    if cmd == "cache":
        return _cmd_cache(rest)
    if cmd == "validate":
        return _cmd_validate(rest)
    if cmd == "sweep":
        return _cmd_sweep(rest)
    if cmd == "machines":
        return _cmd_machines(rest)
    print(f"unknown command {cmd!r}\n{_USAGE}")
    return 1


if __name__ == "__main__":
    try:
        raise SystemExit(main(sys.argv[1:]))
    except BrokenPipeError:
        # output piped into head/less that exited early: not an error
        raise SystemExit(0) from None
