"""The repository benchmark: four workloads, one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the
``src/repro`` package of that checkout, driven only through its public
entry points (the ``repro serve --stdin`` daemon, ``run_sweep``,
``score_bands`` and ``run_machine_grid``).  Workloads are described in
``perfbench/README.md``.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` is a separate run: it measures the workload untraced, then
again with every layer wrapped (:mod:`tracing`), and reports the
per-layer metrics plus the tracing overhead between the two.

Every run checks its outputs against a per-point reference outside the
timed window.  Earlier stdout lines hold a human-readable report with
the workload's own named figures; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0
when every output was correct, 1 when an oracle failed and 2 when the
program is not there to measure.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import ROOT, WORKLOADS, precompile, program_present


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric_units(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics a run reports, from BENCHMARK.json
    (``end_to_end`` untraced, ``per_layer`` traced)."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    units = metric_units(bool(args.trace))
    if not program_present():
        print("perfbench: src/repro not found; run from a checkout root",
              file=sys.stderr)
        return 2
    precompile()
    if args.workload == "serve_hot":
        import serve_hot

        result = serve_hot.run(args.seed, args.seconds, bool(args.trace))
    else:
        import passes

        result = passes.run(args.workload, args.seed, args.seconds,
                            bool(args.trace))

    # a layer a workload does not exercise reads 0 in a traced run
    metrics = {name: {"value": float(result["metrics"].get(name, 0.0)
                                     if args.trace
                                     else result["metrics"][name]),
                      "unit": unit} for name, unit in units.items()}
    correct = not result["problems"] and result["failed"] == 0
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "problems": result["problems"], **result["named"]}
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
