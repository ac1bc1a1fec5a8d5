"""Reference (seed) pipeline scheduler — the slow, obviously-correct model.

This module preserves the original per-cycle implementation of
:class:`~repro.engine.scheduler.PipelineScheduler` exactly as it shipped:
a full ready-scan of the out-of-order window on *every* simulated cycle,
with an explicit ``_next_event`` jump for idle stretches.  The production
scheduler has since been rewritten as event-driven batch lanes with
steady-state period detection (see ``batch.py``); this copy is kept
for three jobs:

* the golden-equivalence suite (``tests/engine/test_golden_equivalence.py``)
  proves the fast paths reproduce these results to within 1e-9 relative;
* ``benchmarks/engine_bench.py`` uses it as the "cold seed" baseline that
  speedups in ``BENCH_engine.json`` are measured against;
* the naive baseline of ``repro serve-bench`` answers with it, so the
  served responses are checked against an oracle that does not share
  the engine under test.

Do not add features here — the whole point is that this file does not
move.
"""

from __future__ import annotations

from typing import Mapping

from repro.machine.isa import Instruction, InstructionStream, Pipe
from repro.machine.microarch import Microarch
from repro.perf.counters import emit, is_profiling

from repro.engine.scheduler import ScheduleResult, _canon_pipes

__all__ = ["ReferenceScheduler"]


class ReferenceScheduler:
    """The seed greedy bounded-window scheduler (per-cycle ready scan)."""

    WARMUP_ITERS = 8
    MEASURE_ITERS = 16

    def __init__(self, march: Microarch, window: int | None = None) -> None:
        self.march = march
        self.window = march.window if window is None else window
        if self.window < 1:
            raise ValueError("window must be >= 1")

    # ------------------------------------------------------------------
    def steady_state(self, stream: InstructionStream) -> ScheduleResult:
        """Simulate the loop and return steady-state statistics."""
        if len(stream) == 0:
            raise ValueError("cannot schedule an empty instruction stream")
        stream.validate()
        n_iters = self.WARMUP_ITERS + self.MEASURE_ITERS
        body = stream.body
        n_body = len(body)
        total = n_body * n_iters

        deps: list[tuple[int, ...]] = self._build_deps(body, n_iters)
        timings = [self._resolve_timing(ins) for ins in body]

        issue_width = self.march.issue_width
        completion = [float("inf")] * total
        issued = [False] * total
        pipe_free: dict[Pipe, float] = {p: 0.0 for p in Pipe}
        pipe_busy_cycles: dict[Pipe, float] = {p: 0.0 for p in Pipe}
        iter_last_issue = [0.0] * n_iters

        head = 0
        retire = 0
        cycle = 0.0
        remaining = total
        max_cycles = 1e7
        while remaining and cycle < max_cycles:
            while retire < total and issued[retire] and completion[retire] <= cycle:
                retire += 1
            rob_limit = min(total, retire + self.window)

            issued_now = 0
            progressed = False
            for d in range(head, rob_limit):
                if issued_now >= issue_width:
                    break
                if issued[d]:
                    continue
                lat, rtput, pipes = timings[d % n_body]
                ready = max((completion[s] for s in deps[d]), default=0.0)
                if ready <= cycle:
                    pipe = self._free_pipe(pipes, pipe_free, cycle)
                    if pipe is not None:
                        issued[d] = True
                        completion[d] = cycle + lat
                        pipe_free[pipe] = max(pipe_free[pipe], cycle) + rtput
                        pipe_busy_cycles[pipe] += rtput
                        issued_now += 1
                        remaining -= 1
                        it = d // n_body
                        iter_last_issue[it] = max(iter_last_issue[it], cycle)
                        progressed = True
            while head < total and issued[head]:
                head += 1
            if progressed:
                cycle += 1.0
            else:
                cycle = self._next_event(
                    cycle, head, rob_limit, issued, deps, completion,
                    timings, n_body, pipe_free, retire,
                )
        if remaining:
            raise RuntimeError(
                "scheduler failed to converge — check the instruction "
                "stream for an unsatisfiable dependence"
            )

        first = self.WARMUP_ITERS
        last = n_iters - 1
        span = iter_last_issue[last] - iter_last_issue[first - 1]
        cpi = span / (last - first + 1)
        cpi = max(cpi, n_body / issue_width)

        makespan = max(cycle, 1.0)
        occupancy = {
            p: min(1.0, pipe_busy_cycles[p] / makespan) for p in Pipe
        }
        bound = self._classify_bound(cpi, n_body, occupancy)
        if is_profiling():
            self._emit_counters(
                stream, n_iters, total, makespan, cpi, pipe_busy_cycles
            )
        return ScheduleResult(
            cycles_per_iter=cpi,
            elements_per_iter=stream.elements_per_iter,
            instructions_per_iter=n_body,
            ipc=n_body / cpi if cpi else float("inf"),
            pipe_occupancy=occupancy,
            bound=bound,
            label=stream.label,
        )

    # ------------------------------------------------------------------
    def _emit_counters(
        self,
        stream: InstructionStream,
        n_iters: int,
        total: int,
        makespan: float,
        cpi: float,
        pipe_busy_cycles: Mapping[Pipe, float],
    ) -> None:
        slot_total = self.march.issue_width * makespan
        emit("pipeline.schedules", 1.0)
        emit("pipeline.iterations", float(n_iters))
        emit("pipeline.instructions", float(total))
        emit("pipeline.makespan_cycles", makespan)
        emit("pipeline.steady_cycles", cpi * n_iters)
        emit("pipeline.issue_slots.total", slot_total)
        emit("pipeline.issue_slots.used", float(total))
        emit("pipeline.issue_slots.stalled", slot_total - total)
        for pipe, busy in pipe_busy_cycles.items():
            if busy:
                emit(f"pipeline.pipe_busy.{pipe.value}", busy)
        for op, count in stream.counts().items():
            emit(f"pipeline.instr_mix.{op.value}", float(count * n_iters))

    # ------------------------------------------------------------------
    def _resolve_timing(
        self, ins: Instruction
    ) -> tuple[float, float, tuple[Pipe, ...]]:
        t = self.march.timing(ins.op)
        lat = ins.latency_override if ins.latency_override is not None else t.latency
        rtp = ins.rtput_override if ins.rtput_override is not None else t.rtput
        # canonical pipe order: ties between equally-free pipes must
        # break the same way as the fast scheduler on any hash seed
        return (lat, rtp, _canon_pipes(t.pipes))

    @staticmethod
    def _free_pipe(
        pipes: tuple[Pipe, ...], pipe_free: dict[Pipe, float], cycle: float
    ) -> Pipe | None:
        best: Pipe | None = None
        for p in pipes:
            if pipe_free[p] < cycle + 1.0:
                if best is None or pipe_free[p] < pipe_free[best]:
                    best = p
        return best

    @staticmethod
    def _build_deps(body: list[Instruction], n_iters: int) -> list[tuple[int, ...]]:
        n_body = len(body)
        static: list[list[tuple[int, int] | None]] = []
        last_def: dict[str, int] = {}
        final_def: dict[str, int] = {}
        for j, ins in enumerate(body):
            if ins.dest:
                final_def[ins.dest] = j
        for j, ins in enumerate(body):
            resolved: list[tuple[int, int] | None] = []
            for src in ins.srcs:
                if ins.carried and src == ins.dest:
                    prev = final_def.get(src)
                    resolved.append((prev, 1) if prev is not None else None)
                elif src in last_def:
                    resolved.append((last_def[src], 0))
                elif src in final_def:
                    resolved.append((final_def[src], 1))
                else:
                    resolved.append(None)
            static.append(resolved)
            if ins.dest:
                last_def[ins.dest] = j
        deps: list[tuple[int, ...]] = []
        for it in range(n_iters):
            for j in range(n_body):
                dyn: list[int] = []
                for res in static[j]:
                    if res is None:
                        continue
                    pos, delta = res
                    src_it = it - delta
                    if src_it >= 0:
                        dyn.append(src_it * n_body + pos)
                deps.append(tuple(dyn))
        return deps

    @staticmethod
    def _next_event(
        cycle: float,
        head: int,
        rob_limit: int,
        issued: list[bool],
        deps: list[tuple[int, ...]],
        completion: list[float],
        timings: list[tuple[float, float, frozenset[Pipe]]],
        n_body: int,
        pipe_free: dict[Pipe, float],
        retire: int,
    ) -> float:
        horizon = float("inf")
        for d in range(head, rob_limit):
            if issued[d]:
                continue
            ready = max((completion[s] for s in deps[d]), default=0.0)
            _, _, pipes = timings[d % n_body]
            pipe_t = min(pipe_free[p] for p in pipes) - 1.0
            horizon = min(horizon, max(ready, pipe_t))
        if retire < rob_limit and issued[retire]:
            horizon = min(horizon, completion[retire])
        if horizon == float("inf"):
            horizon = cycle + 1.0
        return max(horizon, cycle + 1.0)

    @staticmethod
    def _classify_bound(
        cpi: float, n_body: int, occupancy: Mapping[Pipe, float]
    ) -> str:
        hot = max(occupancy.items(), key=lambda kv: kv[1])
        if hot[1] > 0.9:
            return f"pipe:{hot[0].value}"
        if n_body / cpi > 3.5:
            return "issue"
        return "latency"
