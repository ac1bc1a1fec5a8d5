#!/usr/bin/env python
"""Time the simulation engine and record the performance trajectory.

Thin script entry over :mod:`repro.bench.enginebench` (also reachable as
``python -m repro bench``): times the scheduler over the Fig. 1 + Fig. 2
kernel set cold (seed implementation), cold (one scheduler lane per
point), batched, warm-cache, and through the parallel sweep runner,
verifies the fast paths against the seed scheduler, and writes versioned results to
``BENCH_engine.json`` (format ``repro.bench/1``).

Run:  python benchmarks/engine_bench.py [--quick] [--out PATH]
"""

import sys

if __name__ == "__main__":
    from repro.bench.enginebench import main

    raise SystemExit(main(sys.argv[1:]))
