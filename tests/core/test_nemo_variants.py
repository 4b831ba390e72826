"""Nemo configuration-variant behaviour tests."""

from repro.core.config import INMEM_SGS, NemoConfig
from repro.core.nemo import NemoCache
from repro.flash.geometry import FlashGeometry


def geometry(num_zones=10):
    return FlashGeometry(
        page_size=4096, pages_per_block=16, num_blocks=num_zones, blocks_per_zone=1
    )


def build(**overrides):
    params = dict(flush_threshold=4, sgs_per_index_group=2, bf_capacity_per_set=20)
    params.update(overrides)
    return NemoCache(geometry(), NemoConfig(**params))


def churn(cache, n=15_000, size=250):
    for key in range(n):
        cache.insert(key, size)
    return cache


class TestQueueDepth:
    def test_deeper_queue_fills_at_least_as_well(self):
        shallow = churn(build(enable_buffered_sgs=False))
        deep = churn(build())
        assert (len(shallow.queue), len(deep.queue)) == (1, INMEM_SGS)
        assert deep.mean_fill_rate() >= shallow.mean_fill_rate() - 0.05


class TestFlushPolicies:
    def test_naive_flushes_on_first_block(self):
        cache = churn(build(enable_delayed_flush=False))
        assert cache.flush_policy.deferrals == 0
        assert cache.early_evicted_objects == 0


class TestIndexKnobs:
    def test_zero_cached_ratio_always_reads_pool(self):
        cache = churn(build(cached_index_ratio=0.0))
        for key in range(0, 15_000, 7):
            cache.lookup(key, 250)
        if cache.pbfg_lookups:
            assert cache.pbfg_request_pool_ratio() > 0.9

    def test_full_cached_ratio_never_reads_pool_at_steady_state(self):
        cache = churn(build(cached_index_ratio=1.0))
        cache.pbfg_lookups = cache.pbfg_lookups_from_pool = 0
        for key in range(0, 15_000, 7):
            cache.lookup(key, 250)
        if cache.pbfg_lookups:
            assert cache.pbfg_request_pool_ratio() < 0.2

    def test_larger_groups_fewer_pages_per_lookup(self):
        small_groups = build(sgs_per_index_group=2)
        big_groups = build(sgs_per_index_group=4)
        assert (
            big_groups.layout.index_overhead_fraction()
            <= small_groups.layout.index_overhead_fraction() * 1.01
        )

    def test_looser_filters_cost_more_false_positives(self):
        tight = churn(build(bf_false_positive_rate=0.0001))
        loose = churn(build(bf_false_positive_rate=0.05))
        def probe(cache):
            cache.false_positive_reads = 0
            for key in range(100_000, 130_000):
                cache.lookup(key, 250)  # guaranteed misses
            return cache.false_positive_reads
        assert probe(loose) > probe(tight)


class TestHotnessKnobs:
    def test_zero_window_never_marks(self):
        cache = churn(build(hotness_window_fraction=0.0))
        for key in range(15_000):
            cache.lookup(key, 250)
        assert cache.hotness.tracked_count() == 0
        assert cache.memory_overhead_breakdown()["evict"] == 0.0

    def test_full_window_tracks_flash_hits(self):
        cache = churn(build(hotness_window_fraction=1.0, cached_index_ratio=1.0))
        for key in range(0, 15_000, 3):
            cache.lookup(key, 250)
        assert cache.hotness.tracked_count() > 0
