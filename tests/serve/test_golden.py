"""Served responses are bit-identical to the direct prediction APIs.

Every kernel x toolchain x tier in the catalog goes through the server
once cold and once as a cache-hit replay; both responses must equal
what :func:`repro.engine.scheduler.schedule_on` /
:func:`repro.ecm.model.predict_compiled` return when called directly.
"""

import json

import pytest

import repro.kernels.catalog as catalog
from repro.compilers import cache as compile_cache_mod
from repro.compilers.cache import configure_compile_cache, get_compile_cache
from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import TOOLCHAINS, get_toolchain
from repro.engine.cache import configure
from repro.engine.scheduler import schedule_on
from repro.kernels.catalog import ALL_KERNEL_NAMES, build_kernel
from repro.machine.microarch import A64FX, SKYLAKE_6140
from repro.machine.systems import get_system
from repro.perf.profile import default_system_for
from repro.serve import PredictionServer, reset_session_stats


@pytest.fixture(autouse=True)
def fresh_state():
    configure()
    configure_compile_cache()
    reset_session_stats()
    yield
    configure()
    configure_compile_cache()
    reset_session_stats()


def _catalog_requests():
    reqs = []
    for kernel in ALL_KERNEL_NAMES:
        for tc in TOOLCHAINS:
            for tier in ("engine", "ecm"):
                reqs.append({"id": len(reqs), "kernel": kernel,
                             "toolchain": tc, "tier": tier})
    return reqs


def _direct_row(req):
    """What the scalar prediction APIs say, field for field."""
    tc = get_toolchain(req["toolchain"])
    march = SKYLAKE_6140 if tc.target == "x86" else A64FX
    compiled = compile_loop(build_kernel(req["kernel"]), tc, march)
    row = {
        "loop": req["kernel"],
        "toolchain": tc.name,
        "march": march.name,
        "window": march.window,
        "tier": req["tier"],
        "model_cycles_per_element": compiled.cycles_per_element,
    }
    if req["tier"] == "ecm":
        from repro.ecm.model import predict_compiled

        system = get_system(default_system_for(req["toolchain"]))
        pred = predict_compiled(compiled, system)
        row.update({
            "system": system.name,
            "threads": 1,
            "cycles_per_iter": pred.cycles_per_iter,
            "cycles_per_element": pred.cycles_per_element,
            "ipc": pred.incore.n_instrs / pred.cycles_per_iter,
            "bound": pred.bound,
        })
        return row
    sched = schedule_on(march, compiled.stream)
    row.update({
        "cycles_per_iter": sched.cycles_per_iter,
        "cycles_per_element": sched.cycles_per_element,
        "ipc": sched.ipc,
        "bound": sched.bound,
    })
    return row


class TestGolden:
    def test_catalog_served_equals_direct_including_replays(self):
        reqs = _catalog_requests()
        with PredictionServer() as server:
            # admit the cold pass while the drain thread is held, so it
            # runs as full micro-batches with in-batch compile sharing
            with server._batcher._cond:
                futs = [server.submit_line(json.dumps(r))[0] for r in reqs]
            cold = [f.result(timeout=120) for f in futs]
            warm = [f.result(timeout=120) for f in
                    [server.submit_line(json.dumps(r))[0] for r in reqs]]

        for req, cold_resp, warm_resp in zip(reqs, cold, warm):
            label = f"{req['kernel']}/{req['toolchain']}/{req['tier']}"
            assert cold_resp["ok"], f"{label}: {cold_resp.get('error')}"
            direct = _direct_row(req)
            assert cold_resp["result"] == direct, label
            # the cache-hit replay is bit-identical too
            assert warm_resp["result"] == direct, label
            assert warm_resp["provenance"]["cache"] == "hit", label

    def test_windowed_engine_point_matches_direct(self):
        with PredictionServer() as server:
            resp = server.request({"kernel": "scatter",
                                   "toolchain": "cray", "window": 16})
        tc = get_toolchain("cray")
        march = SKYLAKE_6140 if tc.target == "x86" else A64FX
        compiled = compile_loop(build_kernel("scatter"), tc, march)
        sched = schedule_on(march, compiled.stream, 16)
        assert resp["result"]["cycles_per_element"] == \
            sched.cycles_per_element
        assert resp["result"]["ipc"] == sched.ipc
        assert resp["result"]["bound"] == sched.bound

    def test_ecm_threads_match_direct(self):
        from repro.ecm.model import predict_compiled

        with PredictionServer() as server:
            resp = server.request({"kernel": "stencil3d",
                                   "toolchain": "fujitsu", "tier": "ecm",
                                   "threads": 12})
        tc = get_toolchain("fujitsu")
        compiled = compile_loop(build_kernel("stencil3d"), tc, A64FX)
        pred = predict_compiled(compiled, get_system("ookami"),
                                active_cores_per_domain=12)
        assert resp["result"]["cycles_per_iter"] == pred.cycles_per_iter
        assert resp["result"]["cycles_per_element"] == \
            pred.cycles_per_element
        assert resp["result"]["bound"] == pred.bound


class TestWarmReplay:
    """A warm (kernel, toolchain) is resolved by its remembered compile
    key: no IR rebuild, the same answer, one compile-cache hit."""

    @staticmethod
    def _pass(server, reqs):
        with server._batcher._cond:
            futs = [server.submit_line(json.dumps(r))[0] for r in reqs]
        return [f.result(timeout=120) for f in futs]

    def test_warm_replay_builds_no_kernel(self, monkeypatch):
        # ECM tier: its "cache" label is the compile cache's residency
        reqs = [{"id": i, "kernel": kernel, "toolchain": tc, "tier": "ecm"}
                for i, (kernel, tc) in enumerate(
                    (k, t) for k in ALL_KERNEL_NAMES for t in TOOLCHAINS)]
        builds = []

        def counting_build(name, n=None):
            builds.append(name)
            return build_kernel(name, n)

        monkeypatch.setattr(catalog, "build_kernel", counting_build)
        monkeypatch.setattr(compile_cache_mod, "_KERNEL_KEYS", {})
        ccache = get_compile_cache()
        with PredictionServer() as server:
            # cold, no key known yet: build + hash, one miss per combo
            cold = self._pass(server, reqs)
            assert len(builds) == len(reqs)
            assert ccache.stats()["misses"] == len(reqs)
            assert ccache.stats()["hits"] == 0

            # cold again with the keys remembered but nothing resident:
            # still exactly one miss per combo, never counted twice
            ccache = configure_compile_cache()
            configure()
            recold = self._pass(server, reqs)
            assert len(builds) == 2 * len(reqs)
            assert ccache.stats()["misses"] == len(reqs)
            assert ccache.stats()["hits"] == 0

            # warm: no kernel build at all, one hit per combo
            del builds[:]
            warm = self._pass(server, reqs)
        assert builds == []
        assert ccache.stats()["hits"] == len(reqs)
        assert ccache.stats()["misses"] == len(reqs)

        for c, r, w in zip(cold, recold, warm):
            assert c["ok"], c.get("error")
            assert json.dumps(c["result"]) == json.dumps(r["result"]) \
                == json.dumps(w["result"])
            assert c["provenance"]["cache"] == "miss"
            assert r["provenance"]["cache"] == "miss"
            assert w["provenance"]["cache"] == "hit"
