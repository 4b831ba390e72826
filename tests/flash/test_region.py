"""Unit tests for the zone region (free FIFO, open zone, written zones)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EngineStateError
from repro.flash.geometry import FlashGeometry
from repro.flash.region import ZoneRegion
from repro.flash.zns import ZNSDevice
from repro.flash.zone import ZoneState

PPZ = 8  # pages per zone


def make_region(zone_ids=(2, 0, 3)):
    geo = FlashGeometry(
        page_size=4096, pages_per_block=4, num_blocks=10, blocks_per_zone=2
    )
    device = ZNSDevice(geo)
    return ZoneRegion(device, zone_ids), device


def fill(device, zone, pages):
    device.append_many(zone, [None] * pages)


class TestAllocation:
    def test_free_fifo_order_with_reclaimed_zones_at_the_back(self):
        region, device = make_region()
        assert list(region.free) == [2, 0, 3]
        assert region.zone_with_room() == 2
        fill(device, 2, PPZ)
        assert region.zone_with_room() == 0
        region.reclaim(2)
        assert list(region.free) == [3, 2]
        fill(device, 0, PPZ)
        assert region.zone_with_room() == 3
        fill(device, 3, PPZ)
        assert region.zone_with_room() == 2
        assert list(region.written) == [0, 3, 2]

    def test_a_zone_without_room_is_closed_and_stays_written(self):
        region, device = make_region()
        first = region.zone_with_room(3)
        fill(device, first, 6)
        assert region.zone_with_room(2) == first  # 2 of 2 pages fit
        second = region.zone_with_room(3)
        assert second != first
        assert region.open == second
        assert list(region.written) == [first, second]
        assert device.zones[first].write_pointer == 6

    def test_a_filled_zone_no_longer_reads_as_open(self):
        region, device = make_region()
        zone = region.zone_with_room()
        fill(device, zone, PPZ - 1)
        assert region.open == zone
        fill(device, zone, 1)
        assert region.open is None
        assert list(region.written) == [zone]
        assert region.free_pages() == 2 * PPZ

    def test_none_when_no_zone_is_free(self):
        region, device = make_region(zone_ids=[1])
        fill(device, region.zone_with_room(), PPZ - 1)
        assert region.zone_with_room(2) is None
        assert region.open is None
        assert list(region.written) == [1]

    def test_capacity_and_free_pages(self):
        region, device = make_region()
        assert region.capacity_pages == 3 * PPZ
        assert region.free_pages() == 3 * PPZ
        fill(device, region.zone_with_room(), 3)
        assert region.free_pages() == 3 * PPZ - 3


class TestReclaim:
    def written(self):
        region, device = make_region()
        for _ in range(3):
            fill(device, region.zone_with_room(), PPZ)
        return region, device

    def test_reclaim_the_head(self):
        region, device = self.written()
        region.reclaim(2)
        assert list(region.written) == [0, 3]
        assert list(region.free) == [2]
        assert device.zone_state(2) is ZoneState.EMPTY
        assert device.stats.erase_ops == device.geometry.blocks_per_zone
        region.check_invariants()

    def test_reclaim_a_middle_zone(self):
        region, device = self.written()
        region.reclaim(0)
        assert list(region.written) == [2, 3]
        assert list(region.free) == [0]
        region.check_invariants()

    def test_reclaim_the_open_zone(self):
        region, device = make_region()
        zone = region.zone_with_room()
        fill(device, zone, 2)
        region.reclaim(zone)
        assert region.open is None
        assert list(region.written) == []
        assert region.zone_with_room() == 0
        region.check_invariants()

    def test_reclaim_of_a_zone_not_written_raises(self):
        region, _ = make_region()
        with pytest.raises(ValueError):
            region.reclaim(2)


class TestCheckInvariants:
    def test_catches_a_zone_in_both_lists(self):
        region, device = make_region()
        fill(device, region.zone_with_room(), 1)
        region.free.append(region.written[0])
        with pytest.raises(EngineStateError, match="partition"):
            region.check_invariants()

    def test_catches_a_lost_zone(self):
        region, _ = make_region()
        region.free.popleft()
        with pytest.raises(EngineStateError, match="partition"):
            region.check_invariants()

    def test_catches_an_open_zone_outside_written(self):
        region, device = make_region()
        fill(device, region.zone_with_room(), 1)
        region._open = region.free[0]
        with pytest.raises(EngineStateError, match="open zone"):
            region.check_invariants()


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("open"), st.integers(1, PPZ)),
        st.tuples(st.just("append"), st.integers(1, PPZ)),
        st.tuples(st.just("reclaim"), st.integers(0, 10)),
    ),
    max_size=60,
)


@settings(max_examples=100, deadline=None)
@given(ops=OPS)
def test_random_operations_match_a_list_model(ops):
    """free / written / open / free pages against plain lists."""
    zone_ids = [4, 1, 3, 0]
    region, device = make_region(zone_ids)
    free, written, used = list(zone_ids), [], dict.fromkeys(zone_ids, 0)
    opened = None  # the model's open zone, full or not
    for op, arg in ops:
        if op == "open":
            if opened is None or PPZ - used[opened] < arg:
                opened = free.pop(0) if free else None
                if opened is not None:
                    written.append(opened)
            assert region.zone_with_room(arg) == opened
        elif op == "append" and opened is not None and used[opened] < PPZ:
            n = min(arg, PPZ - used[opened])
            fill(device, opened, n)
            used[opened] += n
        elif op == "reclaim" and written:
            victim = written.pop(arg % len(written))
            if victim == opened:
                opened = None
            used[victim] = 0
            free.append(victim)
            region.reclaim(victim)
        assert list(region.free) == free
        assert list(region.written) == written
        has_room = opened is not None and used[opened] < PPZ
        assert region.open == (opened if has_room else None)
        room = PPZ - used[opened] if opened is not None else 0
        assert region.free_pages() == len(free) * PPZ + room
        region.check_invariants()
