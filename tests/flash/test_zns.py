"""Unit tests for the ZNS device simulator."""

import pytest

from repro.errors import AlignmentError, ReadError, ZoneStateError
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel
from repro.flash.zns import ZNSDevice
from repro.flash.zone import ZoneState


@pytest.fixture
def dev():
    geo = FlashGeometry(
        page_size=4096, pages_per_block=4, num_blocks=8, blocks_per_zone=2
    )
    return ZNSDevice(geo)


class TestAppend:
    def test_append_returns_sequential_pages(self, dev):
        p0, _ = dev.append(0, "a")
        p1, _ = dev.append(0, "b")
        assert (p0, p1) == (0, 1)

    def test_append_many_is_contiguous(self, dev):
        pages, _ = dev.append_many(0, list("abcde"))
        assert pages == [0, 1, 2, 3, 4]

    def test_append_many_rejects_oversized_batch(self, dev):
        with pytest.raises(ZoneStateError):
            dev.append_many(0, ["x"] * (dev.geometry.pages_per_zone + 1))

    def test_appends_to_different_zones_are_independent(self, dev):
        p0, _ = dev.append(0, "a")
        p1, _ = dev.append(1, "b")
        assert p1 == dev.geometry.zone_first_page(1)
        assert dev.read(p0)[0] == "a"
        assert dev.read(p1)[0] == "b"

    def test_batched_append_is_one_host_op(self, dev):
        dev.append_many(0, list("abcd"))
        assert dev.stats.host_write_ops == 1
        assert dev.stats.host_write_bytes == 4 * dev.geometry.page_size


class TestReads:
    def test_read_many_counts_all_pages(self, dev):
        pages, _ = dev.append_many(0, list("abc"))
        assert dev.read_many(pages, 0.0) == 0.0
        assert dev.stats.host_read_ops == 3
        assert dev.stats.host_read_bytes == 3 * dev.geometry.page_size
        assert dev.stats.flash_read_bytes == 3 * dev.geometry.page_size
        assert dev.nand.read_count == 3

    def test_read_many_checks_every_page(self, dev):
        pages, _ = dev.append_many(0, list("ab"))
        with pytest.raises(ReadError):
            dev.read_many([pages[0], pages[1] + 1], 0.0)
        with pytest.raises(AlignmentError):
            dev.read_many([dev.geometry.num_pages], 0.0)
        assert dev.nand.read_count == 0
        assert dev.stats.host_read_ops == 0

    def test_read_many_asks_the_latency_model_once(self, dev):
        calls = []

        class Recording(LatencyModel):
            def read_many(self, pages, now_us, *, background=False):
                calls.append((list(pages), now_us))
                return super().read_many(pages, now_us, background=background)

        pages, _ = dev.append_many(0, list("ab"))
        dev.latency = Recording()
        assert dev.read_many(pages, 5.0) > 0.0
        assert dev.read_many([], 6.0) == 0.0
        assert calls == [(pages, 5.0), ([], 6.0)]


class TestZoneManagement:
    def test_full_zone_rejects_appends(self, dev):
        dev.append_many(0, ["x"] * dev.geometry.pages_per_zone)
        assert dev.zone_state(0) is ZoneState.FULL
        with pytest.raises(ZoneStateError):
            dev.append(0, "y")

    def test_reset_allows_rewriting(self, dev):
        dev.append_many(0, ["x"] * dev.geometry.pages_per_zone)
        dev.reset_zone(0)
        assert dev.zone_state(0) is ZoneState.EMPTY
        page, _ = dev.append(0, "fresh")
        assert dev.read(page)[0] == "fresh"

    def test_reset_empty_zone_is_noop(self, dev):
        assert dev.reset_zone(3) == 0.0
        assert dev.stats.erase_ops == 0

    def test_find_empty_zone(self, dev):
        assert dev.find_empty_zone() == 0
        dev.append(0, "a")
        assert dev.find_empty_zone() == 1

    def test_empty_zones_lists_all_initially(self, dev):
        assert all(
            dev.zone_state(z) is ZoneState.EMPTY for z in range(dev.num_zones)
        )

class TestDLWA:
    def test_dlwa_is_exactly_one(self, dev):
        """ZNS has no internal relocation: flash bytes == host bytes."""
        dev.stats.record_logical(100)
        dev.append_many(0, ["x"] * 8)
        dev.reset_zone(0)
        dev.append_many(0, ["y"] * 4)
        assert dev.stats.dlwa == 1.0
