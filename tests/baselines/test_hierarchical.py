"""Integration tests for the Kangaroo and FairyWREN engines."""

import pytest

from repro.baselines.fairywren import FairyWrenCache
from repro.baselines.kangaroo import KangarooCache
from repro.errors import ConfigError
from repro.experiments.common import scale_params, twitter_trace
from repro.flash.geometry import FlashGeometry
from repro.harness.runner import replay


@pytest.fixture
def geometry():
    return FlashGeometry(
        page_size=4096, pages_per_block=32, num_blocks=16, blocks_per_zone=1
    )


def feed(engine, n, size=250, start=0):
    for key in range(start, start + n):
        engine.insert(key, size)


class TestConstruction:
    def test_kg_op_excludes_the_gc_reserve_fw_op_does_not(self, geometry):
        fw = FairyWrenCache(geometry)
        kg = KangarooCache(geometry)
        ppz = geometry.pages_per_zone
        region = len(kg.hset.region.zone_ids) * ppz
        # KG relocates verbatim, so one zone is GC reserve, not OP.
        assert kg.hlog.num_buckets == int(0.95 * (region - ppz))
        # FW folds GC into migration: OP over the whole region, halved
        # between each bucket's cold and hot set.
        assert fw.hlog.num_buckets == int(0.95 * region) // 2

    @pytest.mark.parametrize("scale", ["micro", "small", "full"])
    def test_kg_spare_exceeds_one_zone_at_every_scale(self, scale):
        geo, _ = scale_params(scale)
        kg = KangarooCache(geo)
        spare = len(kg.hset.region.zone_ids) * geo.pages_per_zone - kg.hset.num_sets
        assert spare > geo.pages_per_zone

    def test_zone_split_matches_log_fraction(self, geometry):
        fw = FairyWrenCache(geometry, log_fraction=0.25)
        assert len(fw.hlog.region.zone_ids) == 4
        assert len(fw.hset.region.zone_ids) == 12

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
        reads = fw.device.nand.read_count
        assert fw.lookup(1, 200).hit
        assert fw.device.nand.read_count == reads  # still in the page buffer

    def test_migrated_objects_hit_from_sets(self, geometry):
        fw = FairyWrenCache(geometry)
        feed(fw, 30_000)
        assert fw.hset.object_count() > 0
        # Find a key resident in a cold set and look it up.
        for b in range(fw.hset.num_buckets):
            if fw.hset.sets[b].objects:
                key = next(iter(fw.hset.sets[b].objects))
                if key not in fw.hlog.buckets[b]:
                    reads = fw.device.nand.read_count
                    assert fw.lookup(key, 200).hit
                    assert fw.device.nand.read_count == reads + 1
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
        entry = fw.hlog.buckets[fw._placement_of(1)].get(1)
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
        fractions = kg.hset.gc_valid_fractions
        if fractions:
            # Relocating valid sets multiplies each erase: 1/(1 - valid) > 1.
            assert sum(fractions) / len(fractions) > 0.0
        assert kg.write_amplification > 2 * fw.write_amplification

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


class TestGCReserve:
    """With OP taken beyond the one-zone GC reserve, greedy GC has
    mostly-invalid victims to pick and never drops a valid set."""

    @pytest.mark.parametrize("scale", ["micro", "small"])
    def test_kg_replay_drops_no_sets(self, scale):
        geo, num_requests = scale_params(scale)
        kg = KangarooCache(geo)
        replay(kg, twitter_trace(num_requests))
        fractions = kg.hset.gc_valid_fractions
        assert kg.hset.gc_runs > 0
        assert kg.hset.gc_dropped_sets == 0
        assert kg.write_amplification < 100
        assert sum(fractions) / len(fractions) < 0.9


class TestMetricsSnapshot:
    def test_snapshot_fields(self, geometry):
        fw = FairyWrenCache(geometry)
        feed(fw, 5000)
        snap = fw.metrics_snapshot()
        for field in ("p_fraction", "passive_rmw", "set_gc_runs", "log_objects"):
            assert field in snap
