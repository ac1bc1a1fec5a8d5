"""Paths, child-process environment and statistics shared by the bench."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# run artefacts (trace files, daemon stderr); listed in .gitignore
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("serve_hot", "sweep_cold", "paper_bands", "design_grid")

# paper_bands: entries in band at the seed state (63 scored, 3 of them
# informational).  A pass scoring fewer fails the correctness oracle.
BANDS_IN_EXPECTED = 60

# design_grid size: run_machine_grid(machines=GRID_MACHINES)
GRID_MACHINES = 200


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for every process under test.

    Every ``REPRO_*`` variable is dropped so an ambient setting cannot
    route a run down another path; the hash seed is pinned so set and
    dict iteration order is the same in every run.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def precompile() -> None:
    """Byte-compile the package so no timed spawn pays for compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro")],
        env=child_env(), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL, timeout=120,
    )


def digest(rows: list) -> str:
    """Order-independent digest of predicted rows (exact float repr)."""
    lines = sorted(json.dumps(r, sort_keys=True) for r in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1,
                   int(round(q / 100.0 * len(ordered) + 0.5)) - 1))
    return ordered[k]


def rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for *proc*, killing it after *timeout* seconds.

    Returns ``(exit code, peak resident set in MiB)``; ``os.wait4``
    reports the resources of that one child, not of all children.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0
