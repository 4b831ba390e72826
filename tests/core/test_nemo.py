"""Unit + integration + property tests for the Nemo engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NemoConfig
from repro.core.nemo import NemoCache
from repro.errors import ObjectTooLargeError
from repro.flash.geometry import FlashGeometry


def tiny_nemo(**config_overrides) -> NemoCache:
    geo = FlashGeometry(
        page_size=4096, pages_per_block=16, num_blocks=8, blocks_per_zone=1
    )
    params = dict(
        flush_threshold=4,
        sgs_per_index_group=2,
        bf_capacity_per_set=20,
        cooling_interval_fraction=0.2,
    )
    params.update(config_overrides)
    return NemoCache(geo, NemoConfig(**params))


class TestBasicOps:
    def test_miss_on_empty(self):
        cache = tiny_nemo()
        assert not cache.lookup(1, 100).hit

    def test_insert_then_memory_hit(self):
        cache = tiny_nemo()
        cache.insert(1, 100)
        reads = cache.device.nand.read_count
        assert cache.lookup(1, 100).hit
        assert cache.device.nand.read_count == reads

    def test_object_count(self):
        cache = tiny_nemo()
        for key in range(10):
            cache.insert(key, 200)
        assert cache.object_count() == 10

    def test_update_keeps_single_copy(self):
        cache = tiny_nemo()
        cache.insert(1, 100)
        cache.insert(1, 150)
        assert cache.object_count() == 1

    def test_oversized_object_rejected(self):
        cache = tiny_nemo()
        with pytest.raises(ObjectTooLargeError):
            cache.insert(1, 5000)

    def test_delete_from_memory(self):
        cache = tiny_nemo()
        cache.insert(1, 100)
        assert cache.delete(1)
        assert not cache.lookup(1, 100).hit
        assert not cache.delete(1)


def fill_to_flash(cache, n=4000, size=200, start=0):
    """Insert enough distinct objects to force SG flushes."""
    for key in range(start, start + n):
        cache.insert(key, size)
    return cache


class TestFlushPath:
    def test_flushes_happen_under_pressure(self):
        cache = fill_to_flash(tiny_nemo())
        assert len(cache.pool) > 0
        assert cache.stats.host_write_bytes > 0

    def test_flash_hit_after_flush(self):
        cache = fill_to_flash(tiny_nemo())
        flash_keys = [k for k in range(4000) if cache._flash_index.get(k) is not None]
        assert flash_keys
        reads = cache.device.nand.read_count
        assert cache.lookup(flash_keys[0], 200).hit
        assert cache.device.nand.read_count >= reads + 1

    def test_fill_rates_recorded(self):
        cache = fill_to_flash(tiny_nemo())
        # One fill sample per flushed SG (evicted SGs keep their sample).
        assert len(cache.fill_rates) >= len(cache.pool)
        assert all(0 < f <= 1.0 for f in cache.fill_rates)

    def test_wa_defined_after_flush(self):
        cache = fill_to_flash(tiny_nemo())
        assert cache.write_amplification > 0

    def test_eviction_wraps_pool(self):
        cache = fill_to_flash(tiny_nemo(), n=20_000)
        assert len(cache.pool) <= cache.pool_capacity_sgs
        assert cache.counters.evicted_objects > 0

    def test_evicted_keys_miss(self):
        cache = fill_to_flash(tiny_nemo(enable_writeback=False), n=20_000)
        # The earliest keys were evicted with the oldest SGs.
        assert not cache.lookup(0, 200).hit or cache._flash_index.get(0) is not None

    def test_pool_ids_fifo_ordered(self):
        cache = fill_to_flash(tiny_nemo(), n=20_000)
        ids = [fsg.sg_id for fsg in cache.pool]
        assert ids == sorted(ids)


class TestAccountingInvariants:
    def test_alwa_consistent_with_byte_counters(self):
        cache = fill_to_flash(tiny_nemo())
        s = cache.stats
        assert s.alwa == pytest.approx(s.host_write_bytes / s.logical_write_bytes)

    def test_writeback_not_logical(self):
        cache = fill_to_flash(tiny_nemo(), n=20_000)
        # Logical bytes == admitted bytes, regardless of writeback.
        assert cache.stats.logical_write_bytes == cache.counters.insert_bytes

    def test_dlwa_is_one_on_zns(self):
        cache = fill_to_flash(tiny_nemo(), n=10_000)
        assert cache.stats.dlwa == 1.0

    def test_flash_copies_match_pool_membership(self):
        cache = fill_to_flash(tiny_nemo(), n=10_000)
        counted = {}
        for fsg in cache.pool:
            for s in fsg.sets:
                for key in s:
                    counted[key] = counted.get(key, 0) + 1
        assert counted == cache._flash_copies

    def test_flash_index_points_to_live_sgs(self):
        cache = fill_to_flash(tiny_nemo(), n=10_000)
        live = {fsg.sg_id for fsg in cache.pool}
        assert set(cache._flash_index.values()) <= live


class TestIndexBehaviour:
    def test_index_pages_written(self):
        cache = fill_to_flash(tiny_nemo(), n=8000)
        assert cache.index_pool.live_group_count() > 0

    def test_pbfg_counters_advance(self):
        cache = fill_to_flash(tiny_nemo(), n=8000)
        for key in range(0, 8000, 7):
            cache.lookup(key, 200)
        assert cache.pbfg_lookups > 0
        assert cache.pbfg_touches >= cache.pbfg_lookups

    def test_real_filters_mode_agrees_with_statistical(self):
        """Same trace, both index modes: identical hit decisions and WA."""
        a = fill_to_flash(tiny_nemo(use_real_filters=False), n=6000)
        b = fill_to_flash(tiny_nemo(use_real_filters=True), n=6000)
        for key in range(0, 6000, 11):
            assert a.lookup(key, 200).hit == b.lookup(key, 200).hit
        assert a.write_amplification == pytest.approx(
            b.write_amplification, abs=0.05
        )

    def test_real_filters_have_no_false_negatives(self):
        cache = fill_to_flash(tiny_nemo(use_real_filters=True), n=6000)
        for key, sg_id in list(cache._flash_index.items())[:200]:
            assert cache.lookup(key, 200).hit


class TestWriteback:
    def test_writeback_retains_hot_objects(self):
        cache = tiny_nemo(enable_writeback=True, cached_index_ratio=1.0)
        n = 6000
        hot = list(range(0, 40))
        key = n
        # Interleave hot lookups with a cold insert stream long enough
        # to wrap the pool several times.
        for round_ in range(30_000):
            if round_ % 4 == 0:
                k = hot[round_ % len(hot)]
                if not cache.lookup(k, 200).hit:
                    cache.insert(k, 200)
            else:
                cache.insert(key, 200)
                key += 1
        assert cache.writeback_objects > 0

    def test_disabled_writeback_never_writes_back(self):
        cache = fill_to_flash(tiny_nemo(enable_writeback=False), n=25_000)
        assert cache.writeback_objects == 0


class TestDeleteOnFlash:
    def test_delete_purges_flash_copies(self):
        cache = fill_to_flash(tiny_nemo(), n=6000)
        key = next(iter(cache._flash_index))
        assert cache.delete(key)
        assert not cache.lookup(key, 200).hit
        assert key not in cache._flash_copies


@settings(max_examples=10, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["get", "set", "delete"]),
            st.integers(0, 400),
            st.integers(50, 900),
        ),
        max_size=600,
    )
)
def test_nemo_random_ops_never_corrupt(ops):
    """Random op soup: sizes stay positive, structures stay consistent,
    and a GET hit is only possible for a key that was SET and not
    DELETEd since."""
    cache = tiny_nemo()
    live: set[int] = set()
    for op, key, size in ops:
        if op == "set":
            cache.insert(key, size)
            live.add(key)
        elif op == "delete":
            cache.delete(key)
            live.discard(key)
        else:
            result = cache.lookup(key, size)
            if result.hit:
                assert key in live  # no resurrection of deleted keys
    # Structural checks.
    assert len(cache.pool) <= cache.pool_capacity_sgs
    for fsg in cache.pool:
        for s in fsg.sets:
            assert all(v > 0 for v in s.values())
