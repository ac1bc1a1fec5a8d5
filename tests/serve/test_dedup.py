"""Cross-request dedup satellite: identical in-flight requests coalesce.

Two concurrent identical requests must produce bit-identical payloads
from exactly one scheduler execution — asserted through the content
-addressed cache statistics (one compile miss, one set of schedule
-cache misses, zero extra executions) and the serve-session counters.
"""

import json

import pytest

from repro.compilers.cache import configure_compile_cache, get_compile_cache
from repro.engine.cache import configure, get_cache
from repro.serve import PredictionServer, reset_session_stats, session_stats


@pytest.fixture(autouse=True)
def fresh_state():
    configure()
    configure_compile_cache()
    reset_session_stats()
    yield
    configure()
    configure_compile_cache()
    reset_session_stats()


def _submit_pair(server, doc_a, doc_b):
    # holding the batcher's condition keeps the drain thread from taking
    # a batch until both requests are pending: they share one batch
    with server._batcher._cond:
        fa, _ = server.submit_line(json.dumps(doc_a))
        fb, _ = server.submit_line(json.dumps(doc_b))
    return fa.result(timeout=30), fb.result(timeout=30)


class TestCrossRequestDedup:
    def test_identical_requests_one_execution(self):
        server = PredictionServer()
        with server:
            ra, rb = _submit_pair(
                server,
                {"id": "a", "kernel": "gather", "toolchain": "arm",
                 "window": 24},
                {"id": "b", "kernel": "gather", "toolchain": "arm",
                 "window": 24},
            )

        # bit-identical payloads (ids and dedup provenance aside)
        assert ra["ok"] and rb["ok"]
        assert json.dumps(ra["result"], sort_keys=True) == \
            json.dumps(rb["result"], sort_keys=True)
        assert ra["provenance"]["batched_with"] == 2
        assert rb["provenance"]["batched_with"] == 2
        assert [ra["provenance"]["deduped"],
                rb["provenance"]["deduped"]].count(True) == 1

        # exactly one execution: one compilation, one pass over the two
        # unique schedule lanes (default window + the requested window),
        # nothing recomputed for the duplicate
        cstats = get_compile_cache().stats()
        assert cstats["misses"] == 1
        assert cstats["hits"] == 0
        sstats = get_cache().stats()
        assert sstats["misses"] == 2
        assert sstats["hits"] == 0
        assert sstats["entries"] == 2

        serve = session_stats()
        assert serve["requests"] == 2
        assert serve["ok"] == 2
        assert serve["batches"] == 1
        assert serve["deduped"] == 1

    def test_distinct_requests_do_not_coalesce(self):
        server = PredictionServer()
        with server:
            ra, rb = _submit_pair(
                server,
                {"id": "a", "kernel": "gather", "toolchain": "arm",
                 "window": 24},
                {"id": "b", "kernel": "gather", "toolchain": "arm",
                 "window": 25},
            )
        assert ra["ok"] and rb["ok"]
        assert ra["result"] != rb["result"]
        assert session_stats()["deduped"] == 0
        # shared combo still compiles once; the windows are distinct lanes
        assert get_compile_cache().stats()["misses"] == 1
        assert get_cache().stats()["entries"] == 3

    def test_ecm_duplicates_share_one_compile(self):
        server = PredictionServer()
        with server:
            ra, rb = _submit_pair(
                server,
                {"id": 1, "kernel": "spmv_crs", "toolchain": "fujitsu",
                 "tier": "ecm", "threads": 4},
                {"id": 2, "kernel": "spmv_crs", "toolchain": "fujitsu",
                 "tier": "ecm", "threads": 4},
            )
        assert ra["result"] == rb["result"]
        assert get_compile_cache().stats()["misses"] == 1
        assert session_stats()["deduped"] == 1

    def test_duplicate_across_batches_is_a_hit_not_a_dedup(self):
        with PredictionServer() as server:
            first = server.request({"id": 1, "kernel": "gather",
                                    "toolchain": "arm", "window": 24})
            second = server.request({"id": 2, "kernel": "gather",
                                     "toolchain": "arm", "window": 24})
        assert first["result"] == second["result"]
        assert second["provenance"]["deduped"] is False
        assert second["provenance"]["cache"] == "hit"
        # the replayed batch answers from the caches: no new entries
        sstats = get_cache().stats()
        assert sstats["entries"] == 2
        assert sstats["hits"] > 0
