"""Content-addressed compile cache: keys, hit discipline, kill switch."""

import dataclasses

import pytest

from repro.compilers.cache import (
    CompileCache,
    cached_compile,
    compile_cache_enabled,
    compile_kernel,
    compile_key,
    configure_compile_cache,
    get_compile_cache,
    loop_fingerprint,
)
from repro.compilers.codegen import compile_loop
from repro.compilers.toolchains import get_toolchain
from repro.kernels.catalog import build_kernel
from repro.machine.microarch import A64FX, SKYLAKE_6140


@pytest.fixture(autouse=True)
def fresh_cache():
    configure_compile_cache()
    yield
    configure_compile_cache()


def _compile(kernel="simple", tc_name="fujitsu"):
    tc = get_toolchain(tc_name)
    march = SKYLAKE_6140 if tc.target == "x86" else A64FX
    return cached_compile(build_kernel(kernel), tc, march)


class TestFingerprints:
    def test_rebuilt_loop_shares_a_fingerprint(self):
        assert loop_fingerprint(build_kernel("gather")) == \
            loop_fingerprint(build_kernel("gather"))

    def test_fingerprint_sees_content(self):
        a = build_kernel("gather")
        b = dataclasses.replace(a, length=a.length + 1)
        assert loop_fingerprint(a) != loop_fingerprint(b)

    def test_key_separates_toolchains_and_marches(self):
        loop = build_kernel("simple")
        fujitsu = compile_key(loop, get_toolchain("fujitsu"), A64FX)
        gnu = compile_key(loop, get_toolchain("gnu"), A64FX)
        intel = compile_key(loop, get_toolchain("intel"), SKYLAKE_6140)
        assert len({fujitsu, gnu, intel}) == 3


class TestHitDiscipline:
    def test_hit_is_equal_but_fresh(self):
        cold = _compile()
        hit = _compile()
        assert hit == cold
        assert hit is not cold
        # immutable components are shared, not re-lowered
        assert hit.stream is cold.stream
        assert hit.mem_streams is cold.mem_streams

    def test_hit_does_not_share_the_schedule_slot(self):
        """cycles_per_element on a hit must still consult the schedule
        cache (fresh ``cached_property`` slot), like a cold compile."""
        cold = _compile()
        _ = cold.schedule
        hit = _compile()
        assert "schedule" not in vars(hit)
        assert hit.schedule == cold.schedule

    def test_rebuilt_loop_hits(self):
        """Structurally identical loops share an entry even when the IR
        objects were rebuilt from scratch."""
        _compile()
        stats0 = get_compile_cache().stats()
        _compile()
        stats1 = get_compile_cache().stats()
        assert stats1["hits"] == stats0["hits"] + 1
        assert stats1["misses"] == stats0["misses"]
        assert stats1["entries"] == 1.0

    def test_matches_uncached_compile(self):
        tc = get_toolchain("gnu")
        assert _compile("sqrt", "gnu") == \
            compile_loop(build_kernel("sqrt"), tc, A64FX)


class TestCacheObject:
    def test_capacity_evicts_lru(self):
        cache = CompileCache(capacity=2)
        for i, kernel in enumerate(("simple", "gather", "sqrt")):
            tc = get_toolchain("fujitsu")
            loop = build_kernel(kernel)
            cache.store(compile_key(loop, tc, A64FX),
                        compile_loop(loop, tc, A64FX))
        assert len(cache) == 2
        oldest = compile_key(build_kernel("simple"),
                             get_toolchain("fujitsu"), A64FX)
        assert cache.lookup(oldest) is None

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CompileCache(capacity=0)

    def test_clear_resets_stats(self):
        _compile()
        _compile()
        dropped = get_compile_cache().clear()
        assert dropped == 1
        stats = get_compile_cache().stats()
        assert stats["hits"] == stats["misses"] == stats["entries"] == 0.0

    def test_configure_replaces_the_process_cache(self):
        old = get_compile_cache()
        new = configure_compile_cache(capacity=8)
        assert new is get_compile_cache()
        assert new is not old
        assert new.capacity == 8


class TestCompileKernel:
    def test_matches_cached_compile_and_counts_like_it(self):
        tc = get_toolchain("arm")
        cold, resident = compile_kernel("spmv_sell", tc, A64FX)
        assert resident is False
        warm, resident = compile_kernel("spmv_sell", tc, A64FX)
        assert resident is True
        assert warm == cold
        assert warm is not cold  # private schedule slot, like a hit
        stats = get_compile_cache().stats()
        assert (stats["hits"], stats["misses"]) == (1.0, 1.0)
        # the remembered key is the content key of the built loop
        key = compile_key(build_kernel("spmv_sell"), tc, A64FX)
        assert get_compile_cache().peek(key)
        assert cached_compile(build_kernel("spmv_sell"), tc, A64FX) == cold

    def test_n_is_part_of_the_key(self):
        tc = get_toolchain("fujitsu")
        small, _ = compile_kernel("stencil2d", tc, A64FX, n=1 << 12)
        big, resident = compile_kernel("stencil2d", tc, A64FX)
        assert resident is False
        assert small != big

    def test_off_compiles_fresh(self, monkeypatch):
        tc = get_toolchain("gnu")
        compile_kernel("simple", tc, A64FX)  # remember the key
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "off")
        before = get_compile_cache().stats()
        fresh, resident = compile_kernel("simple", tc, A64FX)
        assert resident is False
        assert fresh == compile_loop(build_kernel("simple"), tc, A64FX)
        assert get_compile_cache().stats() == before


class TestKillSwitch:
    def test_off_bypasses_the_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "off")
        assert not compile_cache_enabled()
        before = get_compile_cache().stats()
        a = _compile()
        b = _compile()
        assert a == b
        assert a.stream is not b.stream  # genuinely re-lowered
        assert get_compile_cache().stats() == before

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMPILE_CACHE", raising=False)
        assert compile_cache_enabled()
