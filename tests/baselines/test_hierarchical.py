"""Integration tests for the Kangaroo and FairyWREN engines."""

import pytest

from repro.baselines.fairywren import FairyWrenCache
from repro.baselines.hierarchical import HierarchicalCacheBase
from repro.baselines.kangaroo import KangarooCache
from repro.errors import ConfigError
from repro.flash.geometry import FlashGeometry


@pytest.fixture
def geometry():
    return FlashGeometry(
        page_size=4096, pages_per_block=32, num_blocks=16, blocks_per_zone=1
    )


def feed(engine, n, size=250, start=0):
    for key in range(start, start + n):
        engine.insert(key, size)


class TestConstruction:
    def test_fw_has_half_the_hash_range_of_kg(self, geometry):
        fw = FairyWrenCache(geometry)
        kg = KangarooCache(geometry)
        assert fw.hlog.num_buckets == pytest.approx(kg.hlog.num_buckets / 2, abs=1)

    def test_zone_split_matches_log_fraction(self, geometry):
        fw = FairyWrenCache(geometry, log_fraction=0.25)
        assert len(fw.hlog.zone_ids) == 4
        assert len(fw.hset.zone_ids) == 12

    def test_too_small_geometry_rejected(self):
        geo = FlashGeometry(
            page_size=4096, pages_per_block=8, num_blocks=3, blocks_per_zone=1
        )
        with pytest.raises(ConfigError):
            FairyWrenCache(geo)

    def test_invalid_fractions_rejected(self, geometry):
        with pytest.raises(ConfigError):
            FairyWrenCache(geometry, log_fraction=0.0)
        with pytest.raises(ConfigError):
            FairyWrenCache(geometry, op_ratio=1.0)


class TestDataPath:
    def test_fresh_insert_hits_from_log(self, geometry):
        fw = FairyWrenCache(geometry)
        fw.insert(1, 200)
        r = fw.lookup(1, 200)
        assert r.hit and r.source == "memory"  # still in the page buffer

    def test_migrated_objects_hit_from_sets(self, geometry):
        fw = FairyWrenCache(geometry)
        feed(fw, 30_000)
        assert fw.hset.object_count() > 0
        # Find a key resident in a cold set and look it up.
        for b in range(fw.hset.num_buckets):
            if fw.hset.sets[b].objects:
                key = next(iter(fw.hset.sets[b].objects))
                if fw.hlog.find(key) is None:
                    r = fw.lookup(key, 200)
                    assert r.hit and r.source == "flash"
                    return
        pytest.fail("no migrated object found")

    def test_delete_across_tiers(self, geometry):
        fw = FairyWrenCache(geometry)
        feed(fw, 10_000)
        key = next(
            k
            for b in range(fw.hset.num_buckets)
            for k in fw.hset.sets[b].objects
        )
        assert fw.delete(key)
        assert not fw.lookup(key, 200).hit

    def test_updates_keep_newest_value_visible(self, geometry):
        fw = FairyWrenCache(geometry)
        fw.insert(1, 100)
        feed(fw, 5000, start=10)
        fw.insert(1, 180)
        entry = fw.hlog.find(1)
        assert entry is not None and entry.size == 180

    def test_hot_bit_set_on_hit(self, geometry):
        fw = FairyWrenCache(geometry)
        fw.insert(1, 200)
        fw.lookup(1, 200)
        assert 1 in fw.hot_keys


class TestWAShape:
    """The paper's §3 ordering: Nemo < FW < KG (Nemo tested elsewhere)."""

    def test_fw_wa_dominated_by_l2swa(self, geometry):
        fw = FairyWrenCache(geometry)
        feed(fw, 60_000)
        assert fw.write_amplification > 3.0
        assert fw.hset.l2swa("passive") > 2.0

    def test_kg_wa_exceeds_fw_and_reports_gc_overhead(self, geometry):
        fw = FairyWrenCache(geometry)
        kg = KangarooCache(geometry)
        feed(fw, 25_000)
        feed(kg, 25_000)
        assert kg.write_amplification > fw.write_amplification
        if kg.hset.gc_runs:
            assert kg.gc_overhead > 1.0
        # Victim-policy ablation: at 5 % OP victims are ~95 % valid
        # whichever way they are chosen, so KG with FIFO victims (the
        # engine itself is greedy) still grinds far above FW.
        kg_fifo = HierarchicalCacheBase(
            geometry,
            log_fraction=0.05,
            op_ratio=0.05,
            hot_cold=False,
            merge_on_gc=False,
            victim_policy="fifo",
        )
        feed(kg_fifo, 25_000)
        assert kg.hset.victim_policy == "greedy"
        assert min(kg.write_amplification, kg_fifo.write_amplification) > (
            2 * fw.write_amplification
        )

    def test_fw_l2swa_near_model(self, geometry):
        fw = FairyWrenCache(geometry)
        feed(fw, 60_000)
        model = fw.model(250.0)
        measured = fw.hset.l2swa("passive")
        assert measured == pytest.approx(model.l2swa_passive, rel=0.5)

    def test_more_log_lowers_fw_wa(self, geometry):
        small = FairyWrenCache(geometry, log_fraction=0.05)
        big = FairyWrenCache(geometry, log_fraction=0.25)
        feed(small, 60_000)
        feed(big, 60_000)
        assert big.write_amplification < small.write_amplification

    def test_memory_overhead_near_paper(self, geometry):
        fw = FairyWrenCache(geometry, log_fraction=0.05)
        assert fw.memory_overhead_bits_per_object() == pytest.approx(9.9, abs=0.2)


class TestMetricsSnapshot:
    def test_snapshot_fields(self, geometry):
        fw = FairyWrenCache(geometry)
        feed(fw, 5000)
        snap = fw.metrics_snapshot()
        for field in ("p_fraction", "passive_rmw", "gc_runs", "log_objects"):
            assert field in snap
