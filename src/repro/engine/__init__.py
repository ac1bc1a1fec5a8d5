"""The performance engine: pipeline scheduling, roofline composition,
single-kernel execution, and the OpenMP-like threading model.

* :mod:`repro.engine.scheduler` — replays an abstract instruction stream
  against a :class:`~repro.machine.microarch.Microarch` and reports
  steady-state cycles/iteration (the quantity behind every
  "cycles per element" number in the paper): the public scheduling API
  (``PipelineScheduler``, ``schedule_on``), result types and observer
  hooks.
* :mod:`repro.engine.batch` — the one simulator: event-driven lanes
  with steady-state period extrapolation, many (march, stream, window)
  points deduplicated and stepped as one int-indexed array program
  (``schedule_batch``).  ``PipelineScheduler`` runs one lane,
  ``schedule_on`` is a one-request batch and every ``run_sweep`` rides
  on it.
* :mod:`repro.engine.cache` — content-addressed schedule cache
  (in-process LRU plus an opt-in on-disk JSON layer) keyed on march and
  stream fingerprints.
* :mod:`repro.engine.sweep` — parallel sweep runner with exact
  profiling-counter merging (``map_schedules`` / ``run_sweep``).
* :mod:`repro.engine.roofline` — peak/bandwidth ceilings and arithmetic
  intensity helpers.
* :mod:`repro.engine.executor` — combines compute cycles with memory-
  hierarchy time into a kernel runtime on a full :class:`System`.
* :mod:`repro.engine.openmp` — fork/join threading with NUMA placement,
  scheduling overheads and parallel-efficiency accounting (Figs. 4-6).

Every stage is instrumented with the PMU-style counters of
:mod:`repro.perf`: wrap any engine call in a
:class:`repro.perf.counters.ProfileScope` to collect per-pipe occupancy,
stall cycles, per-level memory traffic and compute-vs-memory attribution
(see ``docs/PROFILING.md``).
"""

from repro.engine.scheduler import (
    PipelineScheduler,
    ScheduleDivergence,
    ScheduleResult,
    schedule_on,
)
from repro.engine.batch import schedule_batch
from repro.engine.cache import ScheduleCache
from repro.engine.sweep import SweepPoint, map_schedules, run_sweep
from repro.engine.roofline import Roofline
from repro.engine.executor import KernelExecutor, KernelRun
from repro.engine.openmp import OpenMPModel, ParallelRun, RuntimeTraits

__all__ = [
    "PipelineScheduler",
    "ScheduleDivergence",
    "ScheduleResult",
    "schedule_on",
    "schedule_batch",
    "ScheduleCache",
    "SweepPoint",
    "map_schedules",
    "run_sweep",
    "Roofline",
    "KernelExecutor",
    "KernelRun",
    "OpenMPModel",
    "ParallelRun",
    "RuntimeTraits",
]
