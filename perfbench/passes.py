"""Cold-pass workloads: ``sweep_cold``, ``paper_bands``, ``design_grid``.

Every timed pass runs in a fresh interpreter (``pass_child.py``), so
each starts from the same state: no compile, schedule, table, ECM or
machine-builder cache survives from one pass to the next, which the
public clear functions cannot guarantee in one process.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import layers
from common import (BANDS_IN_EXPECTED, BENCH_DIR, OUT, ROOT, child_env,
                    median)

MIN_PASSES = 5
CHILD_TIMEOUT_S = 120


def spawn(workload: str, seed: int, mode: str, trace_path=None) -> dict:
    """Run one pass child; returns its report plus ``setup_s``."""
    argv = [sys.executable, str(BENCH_DIR / "pass_child.py"), workload,
            str(seed), mode]
    if trace_path is not None:
        argv.append(str(trace_path))
    t_spawn = time.monotonic()
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} pass failed "
                           f"({proc.returncode}): {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - t_spawn
    return report


def timed_passes(workload: str, seed: int, seconds: float,
                 trace: bool = False) -> list[dict]:
    """Back-to-back cold passes until *seconds* elapsed (at least
    :data:`MIN_PASSES`)."""
    reports = []
    deadline = time.monotonic() + seconds
    while len(reports) < MIN_PASSES or time.monotonic() < deadline:
        path = None
        if trace:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"{workload}-{seed}-{len(reports)}.trace.json"
        report = spawn(workload, seed, "pass", path)
        if path is not None:
            report["trace"] = layers.load(path)
            path.unlink()
        reports.append(report)
    return reports


def check(workload: str, seed: int, reports: list[dict]) -> list[str]:
    """Correctness oracle, run after the timed passes."""
    problems = []
    digests = {r["digest"] for r in reports}
    if len(digests) != 1:
        problems.append(f"passes disagree: digests {sorted(digests)}")
    if workload == "paper_bands":
        for r in reports:
            if r["bands_out"] or r["bands_in"] < BANDS_IN_EXPECTED:
                problems.append(f"bands: {r['bands_in']} in band, "
                                f"{r['bands_out']} out of band")
    else:
        oracle = spawn(workload, seed, "oracle")
        if oracle["digest"] not in digests or len(digests) != 1:
            problems.append(f"batched rows {sorted(digests)} != per-point "
                            f"reference {oracle['digest']}")
    return problems


def end_to_end(workload: str, reports: list[dict]) -> tuple[dict, dict]:
    """Gated metrics plus the workload's own named figures."""
    pass_s = [r["pass_s"] for r in reports]
    points = reports[0]["points"]
    metrics = {
        "setup_s": median([r["setup_s"] for r in reports]),
        "latency_ms": median(pass_s) * 1e3,
        "throughput": points / median(pass_s),
        "peak_rss_mb": median([r["rss_mb"] for r in reports]),
    }
    named = {"passes": len(reports), "points_per_pass": points,
             "pass_ms": [round(p * 1e3, 3) for p in pass_s],
             "digest": reports[0]["digest"]}
    if workload == "paper_bands":
        named["regen_s"] = median(pass_s)
        named["bands_in"] = reports[0]["bands_in"]
    else:
        named["points_per_s"] = metrics["throughput"]
    return metrics, named


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        # untraced passes first: the baseline of the tracing overhead
        plain = timed_passes(workload, seed, seconds / 2)
        traced = timed_passes(workload, seed, seconds / 2, trace=True)
        reports = plain + traced
        metrics, recon = layers.pass_metrics([r["trace"] for r in traced])
        base = median([r["pass_s"] for r in plain])
        metrics["trace.overhead_pct"] = (
            (median([r["pass_s"] for r in traced]) - base) / base * 100.0)
        named = {"reconciliation": recon}
    else:
        reports = timed_passes(workload, seed, seconds)
        metrics, named = end_to_end(workload, reports)
    problems = check(workload, seed, reports)
    # a failed oracle cannot say which row is wrong: count every point
    attempted = len(reports) * reports[0]["points"]
    return {"metrics": metrics, "named": named, "problems": problems,
            "attempted": attempted, "failed": attempted if problems else 0}
