"""Unit tests for the ZNS device simulator."""

import dataclasses

import numpy as np
import pytest

from repro.errors import AlignmentError, DeviceError, ReadError, ZoneStateError
from repro.flash.device import PAGE_ERASED, PAGE_PROGRAMMED
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

    def test_read_checks_the_page(self, dev):
        dev.append(0, "a")
        with pytest.raises(ReadError):
            dev.read(1)
        with pytest.raises(ReadError):  # no flash copy
            dev.read(-1)
        with pytest.raises(AlignmentError):
            dev.read(dev.geometry.num_pages)
        assert dev.nand.read_count == 0
        assert dev.stats.host_read_ops == 0

    def test_read_many_checks_every_page(self, dev):
        pages, _ = dev.append_many(0, list("ab"))
        with pytest.raises(ReadError):
            dev.read_many([pages[0], pages[1] + 1], 0.0)
        with pytest.raises(ReadError):  # no flash copy
            dev.read_many([pages[0], -1], 0.0)
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

    def test_record_reads_counts_nand_and_host_reads(self, dev):
        dev.record_reads(5)
        assert dev.nand.read_count == 5
        assert dev.stats.host_read_ops == 5
        assert dev.stats.host_read_bytes == 5 * dev.geometry.page_size
        assert dev.stats.flash_read_bytes == 5 * dev.geometry.page_size


class TestSingleAppend:
    def test_append_page_is_append_without_latency(self, dev):
        assert dev.append_page(0, "a") == 0
        assert dev.append(0, "b") == (1, 0.0)
        assert dev.stats.host_write_ops == 2
        assert dev.nand.program_count == 2
        assert dev.read(1)[0] == "b"

    def test_append_times_the_program_when_timed(self, dev):
        calls = []

        class Recording(LatencyModel):
            def program(self, page, now_us):
                calls.append((page, now_us))
                return super().program(page, now_us)

        dev.latency = Recording()
        page, lat = dev.append(1, "a", now_us=3.0)
        assert lat > 0.0
        assert calls == [(page, 3.0)]
        dev.append_page(1, "b")
        assert calls[-1] == (page + 1, 0.0)

    def test_append_on_programmed_page_raises(self, dev):
        dev.nand._state[0] = PAGE_PROGRAMMED
        with pytest.raises(DeviceError, match="page 0 already programmed"):
            dev.append(0, "a")


def device_state(dev):
    """Everything ``copy_many`` reads or writes, as plain values."""
    nand = dev.nand
    return {
        "zones": [(z.write_pointer, z.state) for z in dev.zones],
        "state": bytes(nand._state),
        "payload": list(nand._payload),
        "counts": (nand.read_count, nand.program_count, nand.erase_count),
        "stats": dataclasses.asdict(dev.stats),
    }


class TestCopyMany:
    @pytest.fixture
    def filled(self, dev):
        """Zone 0 fully written with payloads ``p0..p7``; zone 1 holds one page."""
        ppz = dev.geometry.pages_per_zone
        dev.append_many(0, [f"p{i}" for i in range(ppz)])
        dev.append(1, "z1")
        return dev

    def test_copy_equals_reads_then_appends(self, filled):
        ref = ZNSDevice(filled.geometry)
        ref.append_many(0, [f"p{i}" for i in range(filled.geometry.pages_per_zone)])
        ref.append(1, "z1")
        src = [5, 0, 3]
        first = filled.copy_many(np.array(src), 1, ["a", "b", "c"])
        for page, payload in zip(src, ["a", "b", "c"]):
            ref.read(page, background=True)
            ref.append(1, payload)
        assert first == filled.geometry.zone_first_page(1) + 1
        assert device_state(filled) == device_state(ref)
        # One host write op per copied page, as per-page appends count.
        assert filled.stats.host_write_ops == 1 + 1 + 3

    def test_copy_can_fill_a_zone(self, filled):
        ppz = filled.geometry.pages_per_zone
        filled.copy_many(np.arange(ppz - 1), 1, ["x"] * (ppz - 1))
        assert filled.zone_state(1) is ZoneState.FULL

    def test_timed_copy_reads_then_programs_pair_by_pair(self, filled):
        calls = []

        class Recording(LatencyModel):
            def read(self, page, now_us, *, background=False):
                calls.append(("read", page, now_us, background))
                return super().read(page, now_us, background=background)

            def program(self, page, now_us):
                calls.append(("program", page, now_us))
                return super().program(page, now_us)

        filled.latency = Recording()
        first = filled.copy_many(np.array([2, 7]), 1, ["a", "b"], 9.0)
        assert calls == [
            ("read", 2, 9.0, True),
            ("program", first, 9.0),
            ("read", 7, 9.0, True),
            ("program", first + 1, 9.0),
        ]

    def test_unprogrammed_source_raises_read_error(self, filled):
        filled.nand._state[4] = PAGE_ERASED
        before = device_state(filled)
        with pytest.raises(ReadError, match="page 4 "):
            filled.copy_many(np.array([3, 4, 5]), 1, ["a", "b", "c"])
        assert device_state(filled) == before

    def test_source_without_flash_copy_raises_read_error(self, filled):
        before = device_state(filled)
        with pytest.raises(ReadError):
            filled.copy_many(np.array([3, -1]), 1, ["a", "b"])
        assert device_state(filled) == before

    def test_out_of_range_source_raises_alignment_error(self, filled):
        with pytest.raises(AlignmentError):
            filled.copy_many(np.array([filled.geometry.num_pages]), 1, ["a"])

    def test_programmed_target_raises_device_error(self, filled):
        target = filled.geometry.zone_first_page(1) + 2
        filled.nand._state[target] = PAGE_PROGRAMMED
        before = device_state(filled)
        with pytest.raises(DeviceError, match=f"page {target} ") as exc:
            filled.copy_many(np.array([0, 1, 2]), 1, ["a", "b", "c"])
        assert not isinstance(exc.value, ReadError)
        assert device_state(filled) == before

    def test_copy_past_zone_capacity_raises_zone_state_error(self, filled):
        ppz = filled.geometry.pages_per_zone
        before = device_state(filled)
        with pytest.raises(ZoneStateError):
            filled.copy_many(np.arange(ppz), 1, ["x"] * ppz)
        with pytest.raises(ZoneStateError):
            filled.copy_many(np.array([1]), 0, ["x"])  # zone 0 is FULL
        assert device_state(filled) == before

    def test_payload_count_must_match(self, filled):
        with pytest.raises(DeviceError):
            filled.copy_many(np.array([0, 1]), 1, ["a"])


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
