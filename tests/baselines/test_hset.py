"""Unit tests for the hierarchical-cache back tier (HSet)."""

import pytest

from repro.baselines.hset import (
    CASE_ACTIVE,
    CASE_FIRST,
    CASE_PASSIVE,
    HierarchicalSet,
)
from repro.errors import ConfigError
from repro.harness.report import mean_from_counter
from repro.flash.geometry import FlashGeometry
from repro.flash.zns import ZNSDevice


def make_hset(
    num_zones=4,
    num_buckets=8,
    hot_cold=False,
    merge_on_gc=False,
    bucket_objs=None,
    hot_keys=None,
):
    geo = FlashGeometry(
        page_size=4096, pages_per_block=8, num_blocks=num_zones, blocks_per_zone=1
    )
    device = ZNSDevice(geo)
    evicted: list[tuple[int, int]] = []
    hot_keys = hot_keys if hot_keys is not None else set()
    bucket_objs = bucket_objs if bucket_objs is not None else {}
    hset = HierarchicalSet(
        device,
        list(range(num_zones)),
        num_buckets,
        hot_cold=hot_cold,
        merge_on_gc=merge_on_gc,
        bucket_drainer=lambda b: bucket_objs.pop(b, []),
        is_hot=hot_keys.__contains__,
        on_evict=lambda k, s: evicted.append((k, s)),
    )
    return hset, device, evicted, bucket_objs, hot_keys


class TestInstall:
    def test_first_write_classified(self):
        hset, device, *_ = make_hset()
        hset.install_bucket(0, [(1, 100)], case=CASE_PASSIVE)
        assert hset.case_writes[CASE_FIRST] == 1
        assert hset.case_writes[CASE_PASSIVE] == 0
        assert hset.find(1, 0) == (0, 100)

    def test_second_write_is_rmw(self):
        hset, device, *_ = make_hset()
        hset.install_bucket(0, [(1, 100)], case=CASE_PASSIVE)
        reads = device.stats.host_read_ops
        hset.install_bucket(0, [(2, 100)], case=CASE_PASSIVE)
        assert hset.case_writes[CASE_PASSIVE] == 1
        assert device.stats.host_read_ops == reads + 1  # the RMW read

    def test_histogram_counts_new_objects(self):
        hset, *_ = make_hset()
        hset.install_bucket(0, [(1, 100), (2, 100), (3, 100)], case=CASE_PASSIVE)
        assert hset.passive_hist[3] == 1

    def test_empty_bucket_is_noop(self):
        hset, device, *_ = make_hset()
        hset.install_bucket(0, [], case=CASE_PASSIVE)
        assert device.stats.host_write_ops == 0

    def test_overflow_evicts_fifo(self):
        hset, _, evicted, *_ = make_hset()
        hset.install_bucket(0, [(k, 1500) for k in range(4)], case=CASE_PASSIVE)
        assert evicted  # 4 x 1500 > 4096
        assert hset.sets[0].used_bytes <= 4096

    def test_update_replaces(self):
        hset, *_ = make_hset()
        hset.install_bucket(0, [(1, 100)], case=CASE_PASSIVE)
        hset.install_bucket(0, [(1, 300)], case=CASE_PASSIVE)
        assert hset.find(1, 0) == (0, 300)
        assert hset.object_count() == 1

    def test_bad_construction(self):
        geo = FlashGeometry(
            page_size=4096, pages_per_block=8, num_blocks=2, blocks_per_zone=1
        )
        device = ZNSDevice(geo)
        with pytest.raises(ConfigError):
            HierarchicalSet(
                device, [0, 1], 0,
                hot_cold=False, merge_on_gc=False,
                bucket_drainer=lambda b: [], is_hot=lambda k: False,
                on_evict=lambda k, s: None,
            )
        with pytest.raises(ConfigError):
            HierarchicalSet(
                device, [0], 100,  # 100 sets > 8-page region
                hot_cold=False, merge_on_gc=False,
                bucket_drainer=lambda b: [], is_hot=lambda k: False,
                on_evict=lambda k, s: None,
            )


def churn(hset, rounds=12, per_round=8):
    """Rewrite sets until GC has to run."""
    key = 0
    for _ in range(rounds):
        for b in range(min(per_round, hset.num_buckets)):
            hset.install_bucket(b, [(key, 500)], case=CASE_PASSIVE)
            key += 1


class TestGC:
    def test_gc_triggers_and_preserves_sets(self):
        hset, device, *_ = make_hset(num_zones=4, num_buckets=8)
        churn(hset)
        assert hset.gc_runs > 0
        # Every bucket's set content is still readable and consistent.
        for b in range(8):
            found = hset.find_any = hset.sets[b]
            assert found.used_bytes == sum(found.objects.values())

    def test_kangaroo_gc_relocates_without_merging(self):
        hset, *_ = make_hset(merge_on_gc=False)
        churn(hset)
        assert hset.case_writes["relocate"] >= 0
        assert hset.case_writes[CASE_ACTIVE] == 0

    def test_fairywren_gc_merges_buckets(self):
        # Buckets 4-7 are written once and never rewritten, so their
        # pages stay valid in GC victims and get actively merged; the
        # drainer keeps refilling, mimicking a live HLog.
        refill = {b: [(1000 + b, 200)] for b in range(8)}
        hset, _, _, objs, _ = make_hset(
            merge_on_gc=True,
            bucket_objs=dict(refill),
        )
        original_drainer = hset.bucket_drainer
        hset.bucket_drainer = lambda b: [(1000 + b, 200)]
        for b in range(4, 8):
            hset.install_bucket(b, [(b, 500)], case=CASE_PASSIVE)
        churn(hset, rounds=20, per_round=4)
        assert hset.case_writes[CASE_ACTIVE] > 0
        del original_drainer

    def test_valid_fraction_recorded(self):
        hset, *_ = make_hset()
        churn(hset)
        assert hset.gc_valid_fractions
        assert all(0.0 <= v <= 1.0 for v in hset.gc_valid_fractions)

    def test_p_fraction_range(self):
        bucket_objs = {b: [(2000 + b, 200)] for b in range(8)}
        hset, *_ = make_hset(merge_on_gc=True, bucket_objs=bucket_objs)
        churn(hset)
        p = hset.p_fraction
        assert 0.0 <= p <= 1.0

    def test_greedy_picks_low_valid_zone(self):
        """Kangaroo mode (no merge on GC) picks greedy victims."""
        hset, *_ = make_hset()
        churn(hset, rounds=20)
        assert hset.gc_runs > 0
        # Greedy victims should not all be fully valid.
        assert min(hset.gc_valid_fractions) < 1.0


class TestHotCold:
    def test_hot_cold_doubles_sets(self):
        hset, *_ = make_hset(hot_cold=True, num_buckets=4)
        assert hset.num_sets == 8
        assert hset.hot_set_of(1) == 5

    def test_hot_overflow_goes_to_staging(self):
        hot_keys = {0, 1}
        hset, _, evicted, _, _ = make_hset(hot_cold=True, num_buckets=4, hot_keys=hot_keys)
        # Overflow cold set 0 with hot-marked keys first in FIFO order.
        # The hot overflow (keys 0 and 1) moves to the staging buffer and
        # then — once the batch threshold is reached — to the hot set.
        hset.install_bucket(0, [(0, 1500), (1, 1500)], case=CASE_PASSIVE)
        hset.install_bucket(0, [(2, 1500), (3, 1500)], case=CASE_PASSIVE)
        for key in (0, 1):
            found = hset.find(key, 0)
            assert found is not None
            set_id, size = found
            assert size == 1500
            assert set_id in (-1, hset.hot_set_of(0))

    def test_promotion_batch_flushes_to_hot_set(self):
        hot_keys = set(range(100))
        hset, *_ = make_hset(hot_cold=True, num_buckets=4, hot_keys=hot_keys)
        key = 0
        for _ in range(12):
            hset.install_bucket(0, [(key, 1200), (key + 1, 1200)], case=CASE_PASSIVE)
            key += 2
        assert hset.case_writes["promote"] > 0
        hot = hset.sets[hset.hot_set_of(0)]
        assert len(hot.objects) > 0

    def test_hot_set_not_merged_on_gc(self):
        hot_keys = set(range(1000))
        hset, *_ = make_hset(hot_cold=True, num_buckets=2, merge_on_gc=True, hot_keys=hot_keys)
        churn(hset, rounds=30, per_round=2)
        # Hot sets are relocated verbatim, never actively merged.
        assert hset.case_writes[CASE_ACTIVE] >= 0


class TestL2SWAAccounting:
    def test_l2swa_matches_manual_ratio(self):
        hset, *_ = make_hset()
        hset.install_bucket(0, [(1, 100), (2, 100)], case=CASE_PASSIVE)
        hset.install_bucket(0, [(3, 100)], case=CASE_PASSIVE)
        # 2 writes x 4096 bytes / 300 new bytes.
        assert hset.l2swa() == pytest.approx(2 * 4096 / 300)

    def test_mean_new_objects(self):
        hset, *_ = make_hset()
        hset.install_bucket(0, [(1, 100), (2, 100)], case=CASE_PASSIVE)
        hset.install_bucket(1, [(3, 100)], case=CASE_PASSIVE)
        assert mean_from_counter(hset.passive_hist) == pytest.approx(1.5)
