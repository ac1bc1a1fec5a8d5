"""Golden equivalence: every fast path must reproduce the seed scheduler.

The batch-lane simulator (event-driven time advance and steady-state
extrapolation), the schedule cache, and the parallel sweep runner are
pure optimizations — the contract (enforced here at 1e-9 relative, in
practice bit-exact) is that ``ScheduleResult`` and the emitted
``pipeline.*`` counters are unchanged from the preserved seed
implementation in :mod:`repro.engine._reference`.
"""

import pytest

from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS
from repro.engine._reference import ReferenceScheduler
from repro.engine.cache import configure, get_cache
from repro.engine.scheduler import PipelineScheduler, schedule_on
from repro.engine.sweep import run_sweep
from repro.kernels.loops import LOOP_NAMES, build_loop
from repro.machine.microarch import A64FX, SKYLAKE_6140
from repro.perf.counters import ProfileScope

RTOL = 1e-9

#: all Fig. 1 loop variants plus two Fig. 2 math kernels (a cheap one
#: and the FSQRT blocking case), crossed with all five toolchains
KERNELS = LOOP_NAMES + ("sqrt", "exp")
POINTS = [(loop, tc) for loop in KERNELS for tc in TOOLCHAINS]


def _march_for(tc_name):
    return SKYLAKE_6140 if TOOLCHAINS[tc_name].target == "x86" else A64FX


def _stream_for(loop, tc_name):
    return compile_loop(
        build_loop(loop), TOOLCHAINS[tc_name], _march_for(tc_name)
    ).stream


def assert_results_match(res, ref):
    assert res.cycles_per_iter == pytest.approx(
        ref.cycles_per_iter, rel=RTOL)
    assert res.ipc == pytest.approx(ref.ipc, rel=RTOL)
    assert res.elements_per_iter == ref.elements_per_iter
    assert res.instructions_per_iter == ref.instructions_per_iter
    assert res.bound == ref.bound
    assert res.label == ref.label
    for pipe, occ in ref.pipe_occupancy.items():
        assert res.pipe_occupancy[pipe] == pytest.approx(
            occ, rel=RTOL, abs=RTOL)


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from cache state built up elsewhere."""
    configure()
    yield
    configure()


@pytest.mark.parametrize("loop,tc", POINTS, ids=[f"{l}-{t}" for l, t in POINTS])
class TestGoldenEquivalence:
    def test_fresh_event_driven(self, loop, tc):
        """One lane with extrapolation vs the seed per-cycle scan."""
        march, stream = _march_for(tc), _stream_for(loop, tc)
        ref = ReferenceScheduler(march).steady_state(stream)
        res = PipelineScheduler(march).steady_state(stream)
        assert_results_match(res, ref)

    def test_extrapolation_off(self, loop, tc):
        """A lane without period skipping also matches."""
        march, stream = _march_for(tc), _stream_for(loop, tc)
        ref = ReferenceScheduler(march).steady_state(stream)
        res = PipelineScheduler(
            march, extrapolate=False).steady_state(stream)
        assert_results_match(res, ref)

    def test_cached(self, loop, tc):
        """Cold fill and warm hit both match the seed."""
        march, stream = _march_for(tc), _stream_for(loop, tc)
        ref = ReferenceScheduler(march).steady_state(stream)
        assert_results_match(schedule_on(march, stream), ref)  # miss
        assert_results_match(schedule_on(march, stream), ref)  # hit

    def test_counter_payload_matches_seed(self, loop, tc):
        """pipeline.* counters: fresh fast path, cached hit and the seed
        scheduler all emit the same values."""
        march, stream = _march_for(tc), _stream_for(loop, tc)
        with ProfileScope("ref") as ref_counters:
            ReferenceScheduler(march).steady_state(stream)
        with ProfileScope("fast") as fast_counters:
            PipelineScheduler(march).steady_state(stream)
        schedule_on(march, stream)  # prime
        with ProfileScope("hit") as hit_counters:
            schedule_on(march, stream)
        expected = ref_counters.as_dict()
        assert fast_counters.as_dict() == pytest.approx(expected, rel=RTOL)
        hit_pipeline = {
            k: v for k, v in hit_counters.as_dict().items()
            if k.startswith("pipeline.")
        }
        assert hit_pipeline == pytest.approx(expected, rel=RTOL)


class TestParallelEquivalence:
    def test_parallel_sweep_matches_serial(self):
        serial = run_sweep(POINTS, mode="serial")
        get_cache().clear()
        parallel = run_sweep(POINTS, mode="thread", max_workers=4)
        assert len(serial) == len(parallel) == len(POINTS)
        for s, p in zip(serial, parallel):
            assert s["loop"] == p["loop"]
            assert s["toolchain"] == p["toolchain"]
            assert p["cycles_per_iter"] == pytest.approx(
                s["cycles_per_iter"], rel=RTOL)
            assert p["bound"] == s["bound"]

    def test_parallel_rows_match_reference(self):
        rows = run_sweep(POINTS, mode="thread", max_workers=4)
        for (loop, tc), row in zip(POINTS, rows):
            march = _march_for(tc)
            ref = ReferenceScheduler(march).steady_state(
                _stream_for(loop, tc))
            assert row["cycles_per_iter"] == pytest.approx(
                ref.cycles_per_iter, rel=RTOL)


class TestCounterIdentityOnFastPaths:
    """pipeline.issue_slots.total == used + stalled holds exactly."""

    def _assert_identity(self, counters):
        assert (
            counters["pipeline.issue_slots.total"]
            == counters["pipeline.issue_slots.used"]
            + counters["pipeline.issue_slots.stalled"]
        )

    @pytest.mark.parametrize("tc", list(TOOLCHAINS))
    def test_fresh_and_cached(self, tc):
        march, stream = _march_for(tc), _stream_for("gather", tc)
        with ProfileScope("fresh") as fresh:
            PipelineScheduler(march).steady_state(stream)
        self._assert_identity(fresh)
        schedule_on(march, stream)
        with ProfileScope("hit") as hit:
            schedule_on(march, stream)
        self._assert_identity(hit)

    def test_parallel_sweep_totals(self):
        """Totals merged from parallel workers equal the serial totals
        exactly (same additions, same order)."""
        points = [(loop, tc) for loop in ("simple", "sqrt")
                  for tc in TOOLCHAINS]
        with ProfileScope("serial") as serial:
            run_sweep(points, mode="serial")
        get_cache().clear()
        with ProfileScope("parallel") as par:
            run_sweep(points, mode="thread", max_workers=3)
        self._assert_identity(par)

        def pipeline_only(counters):
            return {k: v for k, v in counters.as_dict().items()
                    if k.startswith("pipeline.")}

        # schedule_cache.hit/miss splits may differ under racing workers;
        # the pipeline.* totals must be bit-identical to the serial run
        assert pipeline_only(par) == pipeline_only(serial)
