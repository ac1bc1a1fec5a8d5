"""Pass 2 — scheduler/machine invariant checker.

:class:`ScheduleInvariantChecker` consumes the
:class:`~repro.engine.scheduler.ScheduleRecord` issue-event log exposed
by the scheduler's observer hook and re-derives, independently of the
simulator, the properties the machine model promises:

* **non-negative timings** — every resolved latency and reciprocal
  throughput is ``>= 0``;
* **monotone cycle time** — issue cycles never decrease along the event
  log (events are appended in issue order);
* **front-end cap** — at most ``issue_width`` issues per cycle;
* **per-pipe legality** — replaying the pipe-backlog chain, every issue
  lands on a pipe that frees up within its cycle, exactly the
  scheduler's pipe-admission rule;
* **bounded window / in-order retire** — instruction ``d`` may issue
  only once everything at or below ``d - window`` has completed (the
  retire pointer must have passed it for ``d`` to be window-visible);
* **dataflow** — no instruction issues before its producers complete
  (loop-carried producers resolve to the previous iteration);
* **completeness** — every dynamic instruction issues exactly once;
* **result bookkeeping** — ``cycles_per_iter`` recomputed from the raw
  event log matches the returned
  :class:`~repro.engine.scheduler.ScheduleResult`.

:func:`check_kernel_run` asserts the executor's roofline-composition
identities on every :class:`~repro.engine.executor.KernelRun`.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.engine.executor import KernelRun
from repro.engine.scheduler import (
    PipelineScheduler,
    ScheduleRecord,
    ScheduleResult,
    _dataflow_of,
    add_schedule_observer,
    remove_schedule_observer,
)
from repro.machine.isa import Pipe
from repro.machine.memory import MemoryStream
from repro.validate.report import PassResult, Violation

__all__ = [
    "ScheduleInvariantChecker",
    "check_record",
    "check_kernel_run",
    "run_schedule_pass",
]


def check_record(record: ScheduleRecord) -> list[Violation]:
    """All schedule invariants for one issue-event log; returns violations."""
    out: list[Violation] = []
    stream = record.stream
    where = stream.label or "<unlabeled stream>"
    n_body = len(stream)
    total = n_body * record.n_iters
    timings = record.timings()
    issue_width = record.march.issue_width
    window = record.window

    for pos, (lat, rtput, _pipes) in enumerate(timings):
        if lat < 0 or rtput < 0:
            ins = stream.body[pos]
            out.append(Violation(
                "sched.timing.nonneg", where,
                f"body[{pos}] ({ins.tag or ins.op.value}) has negative "
                f"timing (latency={lat}, rtput={rtput})",
            ))
            return out  # completions below would be meaningless

    events = record.issues
    issue_cycle = [math.inf] * total
    completion = [math.inf] * total
    seen = [0] * total
    prev_cycle = -math.inf
    per_cycle = 0
    pipe_free: dict[Pipe, float] = {p: 0.0 for p in Pipe}

    for k, (d, cycle, pipe) in enumerate(events):
        if d < 0 or d >= total:
            out.append(Violation(
                "sched.issue.range", where,
                f"event {k} issues dynamic instruction {d}, outside "
                f"[0, {total})",
            ))
            continue
        if cycle < prev_cycle:
            out.append(Violation(
                "sched.cycle.monotone", where,
                f"event {k} issues at cycle {cycle}, before the previous "
                f"event's cycle {prev_cycle}",
            ))
        per_cycle = per_cycle + 1 if cycle == prev_cycle else 1
        if per_cycle > issue_width:
            out.append(Violation(
                "sched.issue.width", where,
                f"cycle {cycle} issues {per_cycle} instructions, "
                f"issue_width is {issue_width}",
            ))
        prev_cycle = max(prev_cycle, cycle)
        lat, rtput, pipes = timings[d % n_body]
        if pipe not in pipes:
            out.append(Violation(
                "sched.pipe.legal", where,
                f"event {k} issues body[{d % n_body}] on pipe "
                f"{pipe.value}, legal pipes are "
                f"{sorted(p.value for p in pipes)}",
            ))
        elif pipe_free[pipe] >= cycle + 1.0:
            out.append(Violation(
                "sched.pipe.busy", where,
                f"event {k} issues on pipe {pipe.value} at cycle {cycle} "
                f"but the pipe is busy until {pipe_free[pipe]}",
            ))
        pipe_free[pipe] = max(pipe_free[pipe], cycle) + rtput
        seen[d] += 1
        issue_cycle[d] = cycle
        completion[d] = cycle + lat

    for d, n in enumerate(seen):
        if n != 1:
            out.append(Violation(
                "sched.issue.exactly_once", where,
                f"dynamic instruction {d} issued {n} times",
            ))
    if any(n != 1 for n in seen):
        return out  # window/dataflow checks assume a complete log

    # bounded window + in-order retire: d is only window-visible once the
    # retire pointer passed d - window, i.e. everything at or below
    # d - window completed no later than d's issue cycle
    prefix_completion = 0.0
    for d in range(total):
        if d - window >= 0:
            if d - window == 0:
                prefix_completion = completion[0]
            else:
                prefix_completion = max(
                    prefix_completion, completion[d - window]
                )
            if prefix_completion > issue_cycle[d]:
                out.append(Violation(
                    "sched.retire.window", where,
                    f"instruction {d} issued at cycle {issue_cycle[d]} "
                    f"while instruction {d - window} (window={window} "
                    f"behind) only completes at {prefix_completion} — "
                    f"out-of-order retire or window overrun",
                ))

    deps, _consumers = _dataflow_of(tuple(stream.body))
    for d in range(total):
        it, pos = divmod(d, n_body)
        for ppos, delta in deps[pos]:
            sit = it - delta
            if sit < 0:
                continue
            s = sit * n_body + ppos
            if completion[s] > issue_cycle[d]:
                out.append(Violation(
                    "sched.dataflow", where,
                    f"instruction {d} issued at cycle {issue_cycle[d]} "
                    f"before its producer {s} completed at "
                    f"{completion[s]}",
                ))

    out += _check_result_bookkeeping(
        record, issue_cycle, n_body, issue_width, where
    )
    return out


def _check_result_bookkeeping(
    record: ScheduleRecord,
    issue_cycle: list[float],
    n_body: int,
    issue_width: int,
    where: str,
) -> list[Violation]:
    """Recompute cycles_per_iter from raw events and compare."""
    out: list[Violation] = []
    n_iters = record.n_iters
    warmup = PipelineScheduler.WARMUP_ITERS
    iter_last = [0.0] * n_iters
    for d, c in enumerate(issue_cycle):
        it = d // n_body
        if c > iter_last[it]:
            iter_last[it] = c
    span = iter_last[n_iters - 1] - iter_last[warmup - 1]
    cpi = span / (n_iters - warmup)
    cpi = max(cpi, n_body / issue_width)
    got = record.result.cycles_per_iter
    if not math.isclose(cpi, got, rel_tol=1e-9, abs_tol=1e-12):
        out.append(Violation(
            "sched.result.cpi", where,
            f"cycles_per_iter recomputed from the event log is {cpi}, "
            f"the ScheduleResult says {got}",
        ))
    return out


def check_kernel_run(
    run: KernelRun,
    sched: ScheduleResult,
    streams: tuple[MemoryStream, ...] = (),
) -> list[Violation]:
    """Executor roofline-composition identities for one kernel run."""
    out: list[Violation] = []
    where = run.label or "<unlabeled run>"
    if run.compute_seconds < 0 or run.memory_seconds < 0:
        out.append(Violation(
            "exec.nonneg", where,
            f"negative time component (compute={run.compute_seconds}, "
            f"memory={run.memory_seconds})",
        ))
    expect = max(run.compute_seconds, run.memory_seconds)
    if run.seconds != expect:
        out.append(Violation(
            "exec.roofline.max", where,
            f"seconds {run.seconds} != max(compute "
            f"{run.compute_seconds}, memory {run.memory_seconds})",
        ))
    if run.hidden_seconds != min(run.compute_seconds, run.memory_seconds):
        out.append(Violation(
            "exec.roofline.hidden", where,
            f"hidden_seconds {run.hidden_seconds} != min(compute, memory)",
        ))
    if run.cycles_per_iter != sched.cycles_per_iter:
        out.append(Violation(
            "exec.schedule.cpi", where,
            f"run carries cycles_per_iter {run.cycles_per_iter}, the "
            f"schedule says {sched.cycles_per_iter}",
        ))
    if run.clock_ghz <= 0 or run.iters <= 0:
        out.append(Violation(
            "exec.positive", where,
            f"clock_ghz={run.clock_ghz} and iters={run.iters} must be "
            f"positive",
        ))
    return out


class ScheduleInvariantChecker:
    """Collects (or raises on) schedule/run invariant violations.

    Install via :meth:`install` to observe every simulated schedule and
    every executor run; with ``strict=True`` the first violating call
    site raises :class:`~repro.validate.report.ValidationError`, else
    violations accumulate in :attr:`violations` for batch reporting.
    Use as a context manager to guarantee uninstall.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.violations: list[Violation] = []
        self.schedules_checked = 0
        self.runs_checked = 0
        self._installed = False

    # -- observer callbacks -------------------------------------------
    def on_schedule(self, record: ScheduleRecord) -> None:
        """Schedule-observer entry point (see scheduler hook)."""
        found = check_record(record)
        self.schedules_checked += 1
        self._account(found)

    def on_run(
        self,
        run: KernelRun,
        sched: ScheduleResult,
        streams: tuple[MemoryStream, ...],
    ) -> None:
        """Run-observer entry point (see executor hook)."""
        found = check_kernel_run(run, sched, streams)
        self.runs_checked += 1
        self._account(found)

    def _account(self, found: list[Violation]) -> None:
        if not found:
            return
        if self.strict:
            from repro.validate.report import ValidationError

            raise ValidationError(found)
        self.violations += found

    # -- lifecycle -----------------------------------------------------
    def install(self) -> "ScheduleInvariantChecker":
        """Register with the scheduler and executor observer hooks."""
        from repro.engine.executor import add_run_observer

        if not self._installed:
            add_schedule_observer(self.on_schedule)
            add_run_observer(self.on_run)
            self._installed = True
        return self

    def uninstall(self) -> None:
        """Deregister from the observer hooks (idempotent)."""
        from repro.engine.executor import remove_run_observer

        if self._installed:
            remove_schedule_observer(self.on_schedule)
            remove_run_observer(self.on_run)
            self._installed = False

    def __enter__(self) -> "ScheduleInvariantChecker":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def run_schedule_pass(loops: Iterable[str] | None = None) -> PassResult:
    """Schedule the suite loops with the checker installed.

    Runs the simulator directly (cache bypassed — cache hits replay
    stored outcomes without simulating, so only misses are observable)
    and executes each compiled loop once so the executor identities get
    exercised too.
    """
    from repro.compilers.codegen import compile_loop
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.engine.executor import KernelExecutor
    from repro.kernels.loops import LOOP_NAMES, MATH_LOOP_NAMES, build_loop
    from repro.machine.microarch import A64FX, SKYLAKE_6140
    from repro.machine.systems import get_system

    names = tuple(loops) if loops is not None else (
        LOOP_NAMES + MATH_LOOP_NAMES
    )
    ookami = get_system("ookami")
    skylake = get_system("skylake")
    with ScheduleInvariantChecker(strict=False) as checker:
        for name in names:
            loop = build_loop(name)
            for tc in TOOLCHAINS.values():
                x86 = tc.target == "x86"
                march = SKYLAKE_6140 if x86 else A64FX
                compiled = compile_loop(loop, tc, march)
                sched = PipelineScheduler(march).steady_state(compiled.stream)
                KernelExecutor(skylake if x86 else ookami).run(
                    sched, compiled.mem_streams, compiled.n_iters
                )
    result = PassResult(
        name="schedule",
        checked=checker.schedules_checked + checker.runs_checked,
    )
    result.violations = checker.violations
    return result
