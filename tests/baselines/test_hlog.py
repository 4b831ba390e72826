"""Unit tests for the hierarchical-cache front tier (HLog)."""

import random

import pytest

from repro.baselines.hlog import HierarchicalLog
from repro.errors import ConfigError, ObjectTooLargeError
from repro.flash.geometry import FlashGeometry
from repro.flash.zns import ZNSDevice


def make_log(num_zones=2, num_buckets=16):
    geo = FlashGeometry(
        page_size=4096, pages_per_block=8, num_blocks=4, blocks_per_zone=1
    )
    device = ZNSDevice(geo)
    return HierarchicalLog(device, list(range(num_zones)), num_buckets), device


# The log never hashes: an engine passes each key's bucket (its
# placement hash).  These tests place key ``k`` in bucket ``k % n``.
def bucket(log, key):
    return key % log.num_buckets


def insert(log, key, size):
    return log.insert(key, size, bucket=bucket(log, key))


def find(log, key):
    return log.buckets[bucket(log, key)].get(key)


class TestInsertFind:
    def test_insert_and_find(self):
        log, _ = make_log()
        assert insert(log, 1, 100)
        entry = find(log, 1)
        assert entry is not None and entry.size == 100
        assert log.object_count() == 1

    def test_update_supersedes(self):
        log, _ = make_log()
        insert(log, 1, 100)
        insert(log, 1, 150)
        assert find(log, 1).size == 150
        assert log.object_count() == 1

    def test_bucket_mapping_stable(self):
        """A key lives in the bucket the engine passes, across updates."""
        log, _ = make_log()
        assert log.insert(123, 100, bucket=5)
        assert log.insert(123, 120, bucket=5)
        assert [b for b, entries in enumerate(log.buckets) if 123 in entries] == [5]

    def test_oversized_rejected(self):
        log, _ = make_log()
        with pytest.raises(ObjectTooLargeError):
            insert(log, 1, 5000)

    def test_bad_construction(self):
        geo = FlashGeometry(
            page_size=4096, pages_per_block=8, num_blocks=4, blocks_per_zone=1
        )
        device = ZNSDevice(geo)
        with pytest.raises(ConfigError):
            HierarchicalLog(device, [], 4)
        with pytest.raises(ConfigError):
            HierarchicalLog(device, [0], 0)


class TestFlushingAndCapacity:
    def test_buffer_flushes_to_flash(self):
        log, device = make_log()
        for key in range(50):
            assert insert(log, key, 300)
        assert device.stats.host_write_bytes > 0
        # Flushed entries carry a physical page.
        flushed = [find(log, k) for k in range(20)]
        assert any(e.page >= 0 for e in flushed if e is not None)

    def test_insert_fails_when_full(self):
        log, _ = make_log(num_zones=1)
        key = 0
        while insert(log, key, 300):
            key += 1
            assert key < 10_000, "log never filled"

    def test_reclaim_returns_stale_buckets(self):
        log, _ = make_log(num_zones=1)
        key = 0
        while insert(log, key, 300):
            key += 1
        buckets = log.reclaim_oldest_zone()
        assert buckets
        assert all(0 <= b < log.num_buckets for b in buckets)
        # After draining those buckets, inserts succeed again.
        for b in buckets:
            log.drain_bucket(b)
        assert insert(log, key, 300)

    def test_drain_bucket_empties_it(self):
        log, _ = make_log()
        insert(log, 5, 100)
        b = bucket(log, 5)
        objs = log.drain_bucket(b)
        assert (5, 100) in objs
        assert find(log, 5) is None
        assert log.bucket_len(b) == 0
        assert log.drain_bucket(b) == []

    def test_mean_bucket_len(self):
        log, _ = make_log(num_buckets=8)
        for key in range(16):
            insert(log, key, 100)
        mean_len = sum(log.bucket_len(b) for b in range(8)) / 8
        assert mean_len == pytest.approx(2.0)

    def test_superseded_entries_do_not_trigger_flush(self):
        """A reclaimed zone full of stale copies yields no buckets."""
        log, _ = make_log(num_zones=2, num_buckets=4)
        # Fill zone 0 with versions of few keys, then update them all so
        # the copies in zone 0 go stale.
        key_cycle = [0, 1, 2, 3]
        pages = log.device.geometry.pages_per_zone
        per_page = 4096 // 300
        for i in range(pages * per_page):
            insert(log, key_cycle[i % 4], 300)
        # Every key's current copy is newer than anything in zone 0, so
        # the reclaim finds only stale records and flushes nothing.
        assert log.reclaim_oldest_zone() == []


def churn(log, seed=5, steps=2000):
    """Inserts, updates, removes and drains over a small key space; a
    full log is reclaimed and its stale buckets drained, as the engines
    do on passive migration."""
    rng = random.Random(seed)
    for _ in range(steps):
        key = rng.randrange(300)
        roll = rng.random()
        if roll < 0.1:
            log.remove(key, bucket=bucket(log, key))
        elif roll < 0.12:
            log.drain_bucket(bucket(log, key))
        else:
            size = rng.randrange(40, 900)
            while not insert(log, key, size):
                for b in log.reclaim_oldest_zone():
                    log.drain_bucket(b)


def flushed_pages(log):
    """Payloads of every flushed page still on the log's zones."""
    geo = log.device.geometry
    payloads = []
    for zone in log.region.written:
        first = geo.zone_first_page(zone)
        wp = log.device.zones[zone].write_pointer
        payloads.extend(log.device.nand._payload[first : first + wp])
    return payloads


class TestPayloadCarriesBucket:
    def test_every_flushed_record_carries_its_bucket(self):
        log, _ = make_log(num_zones=3)
        churn(log)
        records = [rec for page in flushed_pages(log) for rec in page.items()]
        assert records
        for key, (_size, _seq, b) in records:
            assert b == bucket(log, key)

    def test_reclaim_matches_a_rehashing_reference(self):
        log, _ = make_log(num_zones=3)
        for seed in range(4):
            churn(log, seed=seed, steps=500)
            geo = log.device.geometry
            victim = log.region.written[0]
            first = geo.zone_first_page(victim)
            wp = log.device.zones[victim].write_pointer
            expected = set()
            for page in log.device.nand._payload[first : first + wp]:
                for key, (_size, seq, _bucket) in page.items():
                    b = bucket(log, key)
                    cur = log.buckets[b].get(key)
                    if cur is not None and cur.seq == seq:
                        expected.add(b)
            buckets = log.reclaim_oldest_zone()
            assert buckets == sorted(expected)
            for b in buckets:
                log.drain_bucket(b)

    def test_buffered_entry_is_flushed_in_place(self):
        log, _ = make_log(num_zones=3)
        churn(log, steps=300)
        for b in log.reclaim_oldest_zone():  # room for the flushes below
            log.drain_bucket(b)
        assert insert(log, 10_000, 100)
        entry = find(log, 10_000)
        assert entry.page == -1
        key = 20_000
        while entry.page == -1:
            assert insert(log, key, 300)
            key += 1
        assert find(log, 10_000) is entry
        assert entry.page >= 0
