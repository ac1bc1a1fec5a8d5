"""Tests for the micro-batching admission queue.

Coalescing is forced deterministically, never with a timer: either the
batcher's condition is held while items are submitted (the drain
thread cannot take a batch until it is released), or the executor is
gated on an :class:`threading.Event` so submissions pile up behind a
running batch.
"""

import threading

import pytest

from repro.serve.queue import MicroBatcher


def _echo(items):
    return [("seen", item) for item in items]


def _recording(batches, gate=None, entered=None):
    """Executor that records each batch; the first batch optionally
    signals *entered* and blocks on *gate*."""

    def execute(items):
        batches.append(list(items))
        if gate is not None and len(batches) == 1:
            entered.set()
            assert gate.wait(timeout=30)
        return items

    return execute


class TestMicroBatcher:
    def test_single_item_round_trip(self):
        with MicroBatcher(_echo) as mb:
            assert mb.submit("a").result(timeout=5) == ("seen", "a")

    def test_pending_items_share_a_batch(self):
        batches = []
        with MicroBatcher(_recording(batches)) as mb:
            # while the condition is held the drain thread cannot take
            # a batch: all four items are pending together when it can
            with mb._cond:
                futs = [mb.submit(i) for i in range(4)]
            assert [f.result(timeout=5) for f in futs] == [0, 1, 2, 3]
        assert batches == [[0, 1, 2, 3]]

    def test_max_batch_splits(self):
        batches = []
        with MicroBatcher(_recording(batches), max_batch=2) as mb:
            with mb._cond:
                futs = [mb.submit(i) for i in range(5)]
            assert [f.result(timeout=5) for f in futs] == list(range(5))
        assert batches == [[0, 1], [2, 3], [4]]

    def test_arrivals_during_a_batch_form_the_next_batch(self):
        batches = []
        gate, entered = threading.Event(), threading.Event()
        with MicroBatcher(_recording(batches, gate, entered)) as mb:
            first = mb.submit("first")
            assert entered.wait(timeout=30)  # batch 1 is executing
            rest = [mb.submit(i) for i in range(3)]
            gate.set()
            assert first.result(timeout=5) == "first"
            assert [f.result(timeout=5) for f in rest] == [0, 1, 2]
        assert batches == [["first"], [0, 1, 2]]

    def test_lone_item_dispatches_without_waiting(self):
        mb = MicroBatcher(_echo)
        mb._running = True  # drive _collect by hand, no drain thread

        def no_wait(*args, **kwargs):
            raise AssertionError("collector waited with work pending")

        mb._cond.wait = no_wait
        mb.submit("alone")
        batch = mb._collect()
        assert [item for item, _fut in batch] == ["alone"]
        assert not mb._pending

    def test_executor_exception_fails_batch_not_queue(self):
        calls = []

        def execute(items):
            calls.append(items)
            if len(calls) == 1:
                raise RuntimeError("bad batch")
            return items

        with MicroBatcher(execute) as mb:
            with pytest.raises(RuntimeError, match="bad batch"):
                mb.submit("poison").result(timeout=5)
            # the drain thread survives and serves the next batch
            assert mb.submit("fine").result(timeout=5) == "fine"

    def test_result_count_mismatch_is_an_error(self):
        with MicroBatcher(lambda items: []) as mb:
            with pytest.raises(RuntimeError, match="0 results"):
                mb.submit("x").result(timeout=5)

    def test_stop_drains_pending(self):
        done = []

        def execute(items):
            done.extend(items)
            return items

        mb = MicroBatcher(execute, max_batch=1)
        mb.start()
        with mb._cond:
            futs = [mb.submit(i) for i in range(3)]
        mb.stop()
        assert [f.result(timeout=1) for f in futs] == [0, 1, 2]
        assert done == [0, 1, 2]

    def test_submit_after_stop_raises(self):
        mb = MicroBatcher(_echo)
        mb.start()
        mb.stop()
        with pytest.raises(RuntimeError):
            mb.submit("late")

    def test_start_is_idempotent(self):
        with MicroBatcher(_echo) as mb:
            mb.start()
            assert mb.submit("a").result(timeout=5) == ("seen", "a")

    @pytest.mark.parametrize("kwargs", [
        {"max_batch": -1}, {"max_batch": 0},
    ])
    def test_rejects_bad_configuration(self, kwargs):
        with pytest.raises(ValueError):
            MicroBatcher(_echo, **kwargs)
