"""Unit tests for the log-structured baseline."""

import pytest

from repro.baselines.log_structured import INDEX_BITS_PER_OBJECT, LogStructuredCache
from repro.errors import ObjectTooLargeError
from repro.flash.geometry import FlashGeometry


def make_cache(**kw):
    geo = FlashGeometry(
        page_size=4096, pages_per_block=16, num_blocks=4, blocks_per_zone=1
    )
    return LogStructuredCache(geo, **kw)


class TestBasics:
    def test_insert_lookup_memory(self):
        cache = make_cache()
        cache.insert(1, 100)
        reads = cache.device.nand.read_count
        assert cache.lookup(1, 100).hit
        assert cache.device.nand.read_count == reads  # still buffered

    def test_flushed_objects_hit_from_flash(self):
        cache = make_cache()
        for key in range(100):
            cache.insert(key, 300)
        reads = cache.device.nand.read_count
        assert cache.lookup(0, 300).hit
        assert cache.device.nand.read_count == reads + 1

    def test_miss(self):
        cache = make_cache()
        assert not cache.lookup(42, 100).hit

    def test_delete(self):
        cache = make_cache()
        cache.insert(1, 100)
        assert cache.delete(1)
        assert not cache.lookup(1, 100).hit

    def test_update_single_copy(self):
        cache = make_cache()
        cache.insert(1, 100)
        cache.insert(1, 200)
        assert cache.object_count() == 1

    def test_oversized_rejected(self):
        cache = make_cache()
        with pytest.raises(ObjectTooLargeError):
            cache.insert(1, 4090)


class TestWAProperties:
    def test_low_wa_near_one(self):
        """The paper's Log baseline: WA ≈ 1.08."""
        cache = make_cache()
        for key in range(30_000):
            cache.insert(key, 250)
        assert 1.0 <= cache.write_amplification < 1.25

    def test_fifo_zone_eviction_drops_oldest(self):
        cache = make_cache()
        capacity_objs = cache.geometry.capacity_bytes // 266
        for key in range(3 * capacity_objs):
            cache.insert(key, 250)
        assert cache.counters.evicted_objects > 0
        # The newest keys survive, the oldest were dropped.
        newest = 3 * capacity_objs - 1
        assert cache.lookup(newest, 250).hit
        assert not cache.lookup(0, 250).hit

    def test_memory_overhead_is_large(self):
        """Table 1: log-structured = high memory (>100 bits/obj)."""
        cache = make_cache()
        assert cache.memory_overhead_bits_per_object() == INDEX_BITS_PER_OBJECT
        assert cache.memory_overhead_bits_per_object() > 100

    def test_dlwa_is_one(self):
        cache = make_cache()
        for key in range(20_000):
            cache.insert(key, 250)
        assert cache.stats.dlwa == 1.0
