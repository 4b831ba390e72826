"""Unit tests for the set-associative baseline."""

import pytest

from repro.baselines.set_associative import SetAssociativeCache
from repro.errors import ObjectTooLargeError
from repro.flash.geometry import FlashGeometry


def make_cache(op_ratio=0.5):
    geo = FlashGeometry(
        page_size=4096, pages_per_block=8, num_blocks=8, blocks_per_zone=1
    )
    return SetAssociativeCache(geo, op_ratio=op_ratio)


class TestBasics:
    def test_insert_lookup(self):
        cache = make_cache()
        cache.insert(1, 200)
        reads = cache.stats.host_read_ops
        assert cache.lookup(1, 200).hit
        assert cache.stats.host_read_ops == reads + 1

    def test_miss_costs_no_flash_read(self):
        """The per-set bloom filter screens misses (4 bits/obj)."""
        cache = make_cache()
        cache.insert(1, 200)
        reads_before = cache.stats.host_read_ops
        assert not cache.lookup(999_999, 200).hit
        assert cache.stats.host_read_ops == reads_before

    def test_update_single_copy(self):
        cache = make_cache()
        cache.insert(1, 100)
        cache.insert(1, 300)
        assert cache.object_count() == 1

    def test_delete_is_metadata_only(self):
        cache = make_cache()
        cache.insert(1, 100)
        writes = cache.stats.host_write_ops
        assert cache.delete(1)
        assert cache.stats.host_write_ops == writes
        assert not cache.lookup(1, 100).hit

    def test_oversized_rejected(self):
        cache = make_cache()
        with pytest.raises(ObjectTooLargeError):
            cache.insert(1, 4097)

    def test_op_halves_usable_sets(self):
        assert make_cache(0.5).num_sets == make_cache(0.25).num_sets * 2 // 3


class TestWAProperties:
    def test_rmw_wa_matches_page_over_object(self):
        """Tiny-object RMW: ALWA ≈ page/object (paper: ~16 at 246 B)."""
        cache = make_cache()
        for key in range(5000):
            cache.insert(key, 250)
        assert cache.stats.alwa == pytest.approx(4096 / 250, rel=0.1)

    def test_set_overflow_evicts_fifo(self):
        cache = make_cache()
        # Force one specific set to overflow by brute force.
        sid = cache._placement_of(0)
        same_set = [k for k in range(100_000) if cache._placement_of(k) == sid][:30]
        for key in same_set:
            cache.insert(key, 400)
        assert cache.counters.evicted_objects > 0
        assert cache.lookup(same_set[-1], 400).hit
        assert not cache.lookup(same_set[0], 400).hit

    def test_memory_overhead(self):
        assert make_cache().memory_overhead_bits_per_object() == 4.0

    def test_total_wa_includes_device_gc(self):
        cache = make_cache(op_ratio=0.3)
        for round_ in range(3):
            for key in range(6000):
                cache.insert(key, 300)
        assert cache.write_amplification >= cache.stats.alwa
