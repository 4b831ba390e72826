"""Unit tests for the FIFO index cache and the on-flash index pool."""

import pytest

from repro.core.index_cache import IndexCache, IndexPool
from repro.core.pbfg import IndexLayout
from repro.errors import ConfigError, EngineStateError
from repro.flash.geometry import FlashGeometry
from repro.flash.zns import ZNSDevice


class TestIndexCache:
    def test_miss_then_hit(self):
        cache = IndexCache(2)
        assert not cache.access((0, 0))
        assert cache.access((0, 0))
        assert cache.hits == 1
        assert cache.misses == 1

    def test_fifo_eviction_order(self):
        cache = IndexCache(2)
        cache.access((0, 0))
        cache.access((0, 1))
        cache.access((0, 2))  # evicts (0,0)
        assert (0, 0) not in cache
        assert (0, 1) in cache

    def test_fifo_does_not_refresh_on_hit(self):
        cache = IndexCache(2)
        cache.access((0, 0))
        cache.access((0, 1))
        cache.access((0, 0))  # hit; FIFO position unchanged
        cache.access((0, 2))  # still evicts (0,0)
        assert (0, 0) not in cache

    def test_zero_capacity_never_stores(self):
        cache = IndexCache(0)
        assert not cache.access((0, 0))
        assert not cache.access((0, 0))
        assert len(cache) == 0

    def test_page_idx_occupancy(self):
        cache = IndexCache(4)
        cache.access((0, 3))
        cache.access((1, 3))
        assert cache.page_idx_cached(3)
        assert not cache.page_idx_cached(2)
        cache.drop_group(0)
        assert cache.page_idx_cached(3)  # (1,3) still present
        cache.drop_group(1)
        assert not cache.page_idx_cached(3)

    def test_miss_ratio(self):
        cache = IndexCache(8)
        cache.access((0, 0))
        cache.access((0, 0))
        assert cache.miss_ratio == 0.5

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigError):
            IndexCache(-1)


def make_pool(num_zones=3, sets_per_sg=8, sgs_per_group=2):
    geo = FlashGeometry(
        page_size=4096,
        pages_per_block=8,
        num_blocks=num_zones,
        blocks_per_zone=1,
    )
    device = ZNSDevice(geo)
    layout = IndexLayout(
        page_size=4096,
        sets_per_sg=sets_per_sg,
        sgs_per_group=sgs_per_group,
        bf_capacity=40,
        bf_false_positive_rate=0.001,
    )
    pool = IndexPool(device, list(range(num_zones)), layout)
    return pool, layout, device


def group_payloads(layout):
    return [("pbfg-page", (0,), j) for j in range(layout.pages_per_group)]


class TestIndexPool:
    def test_write_and_retrieve(self):
        pool, layout, _ = make_pool()
        gid = pool.write_group([0, 1], group_payloads(layout))
        entries = pool.pages_for_offset(0)
        assert len(entries) == 1
        (page_key, physical) = entries[0]
        assert page_key == (gid, layout.page_of_offset(0))
        assert physical >= 0

    def test_wrong_page_count_rejected(self):
        pool, layout, _ = make_pool()
        with pytest.raises(ConfigError):
            pool.write_group([0], [("pbfg-page", (0,), 0)] * (layout.pages_per_group + 1))

    def test_dead_groups_excluded_from_lookup(self):
        pool, layout, _ = make_pool()
        pool.write_group([0, 1], group_payloads(layout))
        pool.on_sg_evicted(0)
        assert pool.pages_for_offset(0)  # one member still live
        pool.on_sg_evicted(1)
        assert pool.pages_for_offset(0) == []

    def test_dead_group_callback(self):
        pool, layout, _ = make_pool()
        dead = []
        pool.on_group_dead = dead.append
        gid = pool.write_group([5, 6], group_payloads(layout))
        pool.on_sg_evicted(5)
        pool.on_sg_evicted(6)
        assert dead == [gid]

    def test_zone_reclaimed_when_groups_dead(self):
        pool, layout, device = make_pool(num_zones=2, sets_per_sg=8, sgs_per_group=1)
        # One page per group: the 17th group reclaims zone 0, the oldest.
        for i in range(24):
            pool.write_group([i], group_payloads(layout))
            # Kill old groups aggressively so reclamation can proceed.
            if i >= 2:
                pool.on_sg_evicted(i - 2)
        assert device.stats.erase_ops == device.geometry.blocks_per_zone
        assert list(pool.region.written) == [1, 0]
        pool.check_invariants()

    def test_starved_pool_raises(self):
        pool, layout, _ = make_pool(num_zones=1, sgs_per_group=1)
        per_zone = 8 // layout.pages_per_group
        with pytest.raises(EngineStateError):
            for i in range(per_zone + 1):  # all groups stay live
                pool.write_group([i], group_payloads(layout))

    def test_group_of_sg(self):
        pool, layout, _ = make_pool()
        gid = pool.write_group([3, 4], group_payloads(layout))
        assert pool.group_of_sg(3) == gid
        assert pool.group_of_sg(99) is None

    def test_live_counts(self):
        pool, layout, _ = make_pool()
        pool.write_group([0, 1], group_payloads(layout))
        assert pool.live_group_count() == 1
        pool.on_sg_evicted(0)
        pool.on_sg_evicted(1)
        assert pool.live_group_count() == 0

    def test_live_group_count_is_audited(self):
        """The count is maintained incrementally; ``check_invariants``
        recounts it from the groups across writes, deaths and reclaims."""
        pool, layout, _ = make_pool(num_zones=2, sets_per_sg=8, sgs_per_group=1)
        for i in range(8):
            pool.write_group([i], group_payloads(layout))
            pool.check_invariants()
            if i >= 2:
                pool.on_sg_evicted(i - 2)
                pool.check_invariants()
        assert pool.live_group_count() == 2
        pool._live_groups += 1
        with pytest.raises(EngineStateError):
            pool.check_invariants()

    def test_zone_lists_are_audited(self):
        pool, layout, _ = make_pool()
        pool.write_group([0, 1], group_payloads(layout))
        pool.region.free.append(pool.region.written[0])
        with pytest.raises(EngineStateError, match="partition"):
            pool.check_invariants()
