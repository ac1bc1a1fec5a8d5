"""Analytical in-core model: ``T_comp`` without simulating a single cycle.

The fast engine *simulates* the bounded-window out-of-order core.  This
module instead computes four closed-form **lower bounds** on the
steady-state initiation interval of a loop body and takes their max —
the classic ECM in-core recipe (Alappat et al., arXiv 2103.03013),
evaluated straight from the microarchitecture timing tables:

* **port pressure** — each instruction's reciprocal throughput is
  assigned to the least-loaded pipe it may execute on (the same greedy
  placement the scheduler converges to); no pipe can be busy less than
  its assigned work.  The load/store pipes' pressure is ``T_nOL``
  (non-overlapping in ECM terms: these cycles move data), the busiest
  remaining pipe gives ``T_OL``.
* **issue** — ``n_instrs / issue_width``: the front end retires at most
  ``issue_width`` instructions per cycle.
* **recurrence chain** — for every loop-carried dependence the
  initiation interval cannot beat the total latency around the cycle
  (a 9-cycle FMA chain caps an un-unrolled reduction at 9 cycles/iter).
* **window** — with an iteration critical path of ``L`` cycles and
  ``N`` instructions per iteration, at most ``(window + N) / N``
  iterations are ever in flight behind the in-order retire pointer, so
  ``T >= L * N / (window + N)`` (the mechanism that makes long
  dependence chains expensive even out-of-order).

The issue and chain bounds are true lower bounds on what the simulator
can achieve.  The port bound assigns whole reciprocal throughputs
greedily, and the window bound is a closed-form model of the finite
reorder window — both track the simulator tightly but may overshoot its
steady state by a few percent (the simulator can split an
instruction's pipe occupancy across iterations, and it keeps slightly
more iterations in flight than the closed form admits).  In practice
the analytical ``T_comp`` stays within ~10% of the simulated
cycles-per-iter from below and ~9% from above across the whole catalog,
which is what makes the reconciliation pass in
:mod:`repro.validate.reconcile` meaningful.

Dependence resolution intentionally reuses the simulator's memoized
dataflow (``repro.engine.scheduler._dataflow_of``) so the analytical
model and the simulator can never drift apart on *which* edges exist —
they may only disagree on the cycles those edges cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.engine.scheduler import _dataflow_of
from repro.machine.isa import InstructionStream, Pipe
from repro.machine.microarch import Microarch

__all__ = ["InCoreSummary", "analyze_stream"]

#: pipes whose busy cycles are data movement (ECM's non-overlapping part)
_NOL_PIPES = frozenset((Pipe.LS1, Pipe.LS2))

#: fixed pipe indexing so the hot placement loop runs on plain lists
#: instead of enum-keyed dicts (this function is the analytical tier's
#: entire in-core cost, and the 100x-vs-engine bench floor is sensitive
#: to it)
_PIPES = tuple(Pipe)
_PIPE_INDEX = {p: i for i, p in enumerate(_PIPES)}
_NOL_INDICES = tuple(_PIPE_INDEX[p] for p in _NOL_PIPES)
_OL_INDICES = tuple(i for i, p in enumerate(_PIPES) if p not in _NOL_PIPES)

#: pipe-set -> index tuple sorted by mnemonic, memoized (a handful of
#: distinct sets exist across all timing tables)
_PIPESET_CACHE: dict[frozenset, tuple[int, ...]] = {}


def _pipe_indices(pipes: frozenset) -> tuple[int, ...]:
    idxs = _PIPESET_CACHE.get(pipes)
    if idxs is None:
        idxs = tuple(_PIPE_INDEX[p]
                     for p in sorted(pipes, key=lambda p: p.value))
        _PIPESET_CACHE[pipes] = idxs
    return idxs


@dataclass(frozen=True)
class InCoreSummary:
    """Closed-form in-core bounds for one lowered loop body.

    All quantities are cycles per (possibly unrolled, vectorized) loop
    iteration.  ``t_comp`` is the composed in-core prediction; ``bound``
    names which of the four bounds is active.
    """

    t_ol: float
    t_nol: float
    issue_cycles: float
    chain_cycles: float
    window_cycles: float
    port_cycles: Mapping[Pipe, float]
    n_instrs: int

    @property
    def t_comp(self) -> float:
        """The in-core initiation-interval bound: max of the four bounds."""
        return max(self.t_ol, self.t_nol, self.issue_cycles,
                   self.chain_cycles, self.window_cycles)

    @property
    def bound(self) -> str:
        """Name of the active in-core bound (``port:fla``, ``issue``,
        ``chain`` or ``window``)."""
        port = max(self.t_ol, self.t_nol)
        best = max(port, self.issue_cycles, self.chain_cycles,
                   self.window_cycles)
        if best == self.chain_cycles and self.chain_cycles > port:
            return "chain"
        if best == self.window_cycles and self.window_cycles > port:
            return "window"
        if best == self.issue_cycles and self.issue_cycles > port:
            return "issue"
        hot = max(self.port_cycles.items(), key=lambda kv: kv[1])
        return f"port:{hot[0].value}"


def _resolved_timings(stream: InstructionStream, march: Microarch):
    """Per body position ``(latency, rtput, pipe_indices)`` honoring
    overrides — the same resolution rule the scheduler applies.  Pipes
    come back as :data:`_PIPES` indices sorted by mnemonic, so the
    placement loop below runs on plain ints."""
    out = []
    for ins in stream.body:
        t = march.timing(ins.op)
        lat = (ins.latency_override
               if ins.latency_override is not None else t.latency)
        rtp = (ins.rtput_override
               if ins.rtput_override is not None else t.rtput)
        out.append((lat, rtp, _pipe_indices(t.pipes)))
    return out


class _StreamBase:
    """Window-independent part of the in-core analysis for one stream.

    Everything in :func:`analyze_stream` except the window bound is a
    pure function of (stream body, march); :mod:`repro.ecm.batch`
    memoizes this object per (march, body) and re-derives only the
    ``window_cycles`` term per point, which is what makes vectorized
    ECM batches cheap without changing a single float.
    """

    __slots__ = ("load", "t_ol", "t_nol", "issue_cycles", "chain_cycles",
                 "crit_path", "n")

    def __init__(self, load, t_ol, t_nol, issue_cycles, chain_cycles,
                 crit_path, n) -> None:
        self.load = load
        self.t_ol = t_ol
        self.t_nol = t_nol
        self.issue_cycles = issue_cycles
        self.chain_cycles = chain_cycles
        self.crit_path = crit_path
        self.n = n


def _stream_base(stream: InstructionStream, march: Microarch) -> _StreamBase:
    """All window-independent in-core bounds for *stream* on *march*."""
    body = stream.body
    if not body:
        raise ValueError("cannot analyze an empty instruction stream")
    n = len(body)
    timings = _resolved_timings(stream, march)
    deps, _consumers = _dataflow_of(tuple(body))

    # --- port pressure: greedy least-loaded placement, most-constrained
    # instructions first (an op locked to one pipe must land there; ops
    # with alternatives then fill the remaining slack — the balance the
    # out-of-order scheduler converges to in steady state); index tuples
    # are mnemonic-sorted, so first-wins ties match the scheduler's
    # min(pipes, key=(load, value)) rule
    load = [0.0] * len(_PIPES)
    for _lat, rtp, idxs in sorted(timings, key=lambda t: len(t[2])):
        best = idxs[0]
        for i in idxs[1:]:
            if load[i] < load[best]:
                best = i
        load[best] += rtp
    t_nol = max(load[i] for i in _NOL_INDICES)
    t_ol = max(load[i] for i in _OL_INDICES)

    # --- front-end issue bound -----------------------------------------
    issue_cycles = n / march.issue_width

    # --- iteration critical path (same-iteration edges only) -----------
    finish = [0.0] * n
    for k in range(n):
        ready = 0.0
        for pos, delta in deps[k]:
            if delta == 0 and finish[pos] > ready:
                ready = finish[pos]
        finish[k] = ready + timings[k][0]
    crit_path = max(finish)

    # --- loop-carried recurrence bound ---------------------------------
    # for each cross-iteration edge producer p -> consumer i, the
    # initiation interval is at least the total latency around the cycle:
    # the longest same-iteration latency path from i to p, closed by the
    # carried edge.
    chain_cycles = 0.0
    for i in range(n):
        for p, delta in deps[i]:
            if delta != 1:
                continue
            if p < i:
                # no same-iteration path can run backwards; the cycle
                # still costs at least the producer's own latency
                candidate = timings[p][0]
            else:
                dist = [-1.0] * n
                dist[i] = timings[i][0]
                for k in range(i + 1, p + 1):
                    best = -1.0
                    for pos, d in deps[k]:
                        if d == 0 and dist[pos] >= 0.0 and dist[pos] > best:
                            best = dist[pos]
                    if best >= 0.0:
                        dist[k] = best + timings[k][0]
                candidate = dist[p] if dist[p] >= 0.0 else timings[p][0]
            if candidate > chain_cycles:
                chain_cycles = candidate

    return _StreamBase(load, t_ol, t_nol, issue_cycles, chain_cycles,
                       crit_path, n)


def _summarize(base: _StreamBase, win: int) -> InCoreSummary:
    """Fold the window bound into a base analysis (shared with batches)."""
    # at most (win + n) / n iterations in flight; each takes >= crit_path
    window_cycles = base.crit_path * base.n / (win + base.n)
    return InCoreSummary(
        t_ol=base.t_ol,
        t_nol=base.t_nol,
        issue_cycles=base.issue_cycles,
        chain_cycles=base.chain_cycles,
        window_cycles=window_cycles,
        port_cycles={p: base.load[i] for i, p in enumerate(_PIPES)},
        n_instrs=base.n,
    )


def analyze_stream(
    stream: InstructionStream,
    march: Microarch,
    window: int | None = None,
) -> InCoreSummary:
    """Compute the four analytical in-core bounds for *stream* on *march*.

    ``window`` overrides the reorder-window size (same meaning as the
    :class:`~repro.engine.scheduler.PipelineScheduler` parameter).
    """
    win = march.window if window is None else window
    return _summarize(_stream_base(stream, march), win)
