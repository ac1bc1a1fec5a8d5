"""Tests for the parallel sweep runner."""

import pytest

from repro.compilers.cache import configure_compile_cache, get_compile_cache
from repro.engine.cache import configure, get_cache
from repro.engine.sweep import (
    PoolDowngradeWarning,
    SweepPoint,
    last_effective_mode,
    map_schedules,
    run_sweep,
)
from repro.perf.counters import ProfileScope, emit


@pytest.fixture(autouse=True)
def fresh_cache():
    configure()
    configure_compile_cache()
    yield
    configure()
    configure_compile_cache()


def _emit_task(item):
    emit("sweep_test.calls", 1.0)
    emit("sweep_test.value", float(item))
    return item * 2


class TestMapSchedules:
    @pytest.mark.parametrize("mode", ["serial", "thread", "process"])
    def test_results_in_order(self, mode):
        items = list(range(8))
        assert map_schedules(_emit_task, items, mode=mode) == [
            2 * i for i in items
        ]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            map_schedules(_emit_task, [1], mode="fleet")

    @pytest.mark.parametrize("mode", ["serial", "thread"])
    def test_counter_totals_exact(self, mode):
        items = list(range(10))
        with ProfileScope("sweep") as counters:
            map_schedules(_emit_task, items, mode=mode, max_workers=3)
        assert counters["sweep_test.calls"] == float(len(items))
        assert counters["sweep_test.value"] == float(sum(items))

    def test_nested_scopes_both_receive_merged_counters(self):
        with ProfileScope("outer") as outer:
            with ProfileScope("inner") as inner:
                map_schedules(_emit_task, [1, 2, 3], mode="thread")
        assert inner["sweep_test.calls"] == 3.0
        assert outer["sweep_test.calls"] == 3.0

    def test_worker_emissions_do_not_leak_live(self):
        """Thread workers emit into task scopes, not the caller's —
        everything arrives exactly once, via the deterministic merge."""
        with ProfileScope("caller") as counters:
            map_schedules(_emit_task, list(range(20)), mode="thread",
                          max_workers=8)
        assert counters["sweep_test.calls"] == 20.0


class TestRunSweep:
    def test_rows_have_schedule_stats(self):
        rows = run_sweep([("simple", "fujitsu"), ("sqrt", "gnu")])
        assert [r["loop"] for r in rows] == ["simple", "sqrt"]
        for row in rows:
            assert row["cycles_per_iter"] > 0
            assert row["cycles_per_element"] > 0
            assert row["model_cycles_per_element"] > 0
            assert row["ipc"] > 0
            assert row["bound"]
            assert row["march"]

    def test_accepts_sweep_points_and_windows(self):
        narrow, wide = run_sweep([
            SweepPoint("exp", "fujitsu", window=1),
            SweepPoint("exp", "fujitsu"),
        ])
        assert narrow["window"] == 1
        assert narrow["cycles_per_iter"] >= wide["cycles_per_iter"]

    def test_intel_points_target_skylake(self):
        (row,) = run_sweep([("simple", "intel")])
        assert "6140" in row["march"] or "skylake" in row["march"].lower()

    def test_thread_mode_matches_serial(self):
        points = [(loop, tc) for loop in ("simple", "gather", "exp")
                  for tc in ("fujitsu", "gnu", "intel")]
        serial = run_sweep(points, mode="serial")
        threaded = run_sweep(points, mode="thread", max_workers=4)
        assert serial == threaded


class TestMachineAxis:
    """SweepPoint.machine retargets a point at a catalog preset."""

    def test_machine_points_target_the_preset(self):
        (row,) = run_sweep([SweepPoint("simple", "gnu", machine="rvv")])
        assert row["machine"] == "rvv"
        assert row["march"] == "RVV-HBM"

    def test_rows_without_machine_have_no_machine_key(self):
        """Pre-machine-axis rows must stay byte-identical (row equality
        checks elsewhere depend on it)."""
        (row,) = run_sweep([("simple", "fujitsu")])
        assert "machine" not in row

    def test_machine_changes_the_prediction(self):
        default, rvv = run_sweep([
            SweepPoint("sqrt", "gnu"),
            SweepPoint("sqrt", "gnu", machine="rvv"),
        ])
        # RVV pipelines fsqrt (28/14) where the A64FX blocks (134/134)
        assert rvv["cycles_per_element"] < default["cycles_per_element"]

    def test_ecm_tier_uses_the_machine_system(self):
        (row,) = run_sweep(
            [SweepPoint("simple", "gnu", tier="ecm", machine="rvv")])
        assert row["machine"] == "rvv"
        assert row["cycles_per_element"] > 0

    def test_batched_matches_per_point_with_machines(self):
        """Mixed machine/default points through the batch path equal
        the per-point path row for row."""
        points = [
            SweepPoint(loop, tc, tier=tier, machine=machine)
            for loop in ("simple", "sqrt")
            for tc, machine in (("fujitsu", None), ("gnu", "rvv"),
                                ("fujitsu", "a64fx"), ("intel", None))
            for tier in ("engine", "ecm")
        ]
        per_point = run_sweep(points, batch=False)
        configure()
        configure_compile_cache()
        batched = run_sweep(points, batch=True)
        assert batched == per_point

    def test_core_only_machine_ecm_raises(self):
        """thunderx2 has no node description: the ECM tier needs one."""
        with pytest.raises(ValueError, match="core-only"):
            run_sweep([SweepPoint("simple", "gnu", tier="ecm",
                                  machine="thunderx2")])

    def test_core_only_machine_engine_tier_works(self):
        (row,) = run_sweep([SweepPoint("simple", "gnu",
                                       machine="thunderx2")])
        assert row["march"] == "ThunderX2"


def _mixed_grid():
    """A small engine+ecm grid over two toolchains and two windows."""
    return [
        SweepPoint(loop, tc, window=win, tier=tier)
        for loop in ("simple", "gather", "exp")
        for tc in ("fujitsu", "intel")
        for win in (None, 24)
        for tier in ("engine", "ecm")
    ]


class TestProcessSweep:
    def test_rows_match_serial_per_point(self):
        points = _mixed_grid()
        serial = run_sweep(points, mode="serial", batch=False)
        configure()
        configure_compile_cache()
        sharded = run_sweep(points, mode="process", max_workers=3)
        assert sharded == serial

    def test_counters_and_stats_merge_exactly(self):
        """Sharded process sweep == serial per-point sweep, counter for
        counter and schedule-cache stat for stat."""
        points = _mixed_grid()
        with ProfileScope("serial") as serial_counters:
            run_sweep(points, mode="serial", batch=False)
        serial_stats = get_cache().stats()
        configure()
        configure_compile_cache()
        with ProfileScope("sharded") as shard_counters:
            run_sweep(points, mode="process", max_workers=3)
        assert shard_counters.as_dict() == serial_counters.as_dict()
        assert get_cache().stats() == serial_stats

    def test_downgrade_warns_and_still_matches(self, monkeypatch):
        def _no_fork(*args, **kwargs):
            raise OSError("no fork in sandbox")

        points = _mixed_grid()
        serial = run_sweep(points, mode="serial", batch=False)
        configure()
        configure_compile_cache()
        monkeypatch.setattr(
            "repro.engine.sweep.ProcessPoolExecutor", _no_fork)
        with pytest.warns(PoolDowngradeWarning):
            rows = run_sweep(points, mode="process", max_workers=3)
        assert last_effective_mode() == "thread"
        assert rows == serial


class TestBatchRouting:
    """``run_sweep`` batches every sweep unless ``batch=False``."""

    def test_batch_true_forces_small_sweeps(self):
        points = [("simple", "fujitsu"), ("gather", "intel")]
        reference = run_sweep(points, batch=False)
        configure()
        rows = run_sweep(points, batch=True)
        assert get_compile_cache().stats()["misses"] == 2.0
        assert rows == reference
