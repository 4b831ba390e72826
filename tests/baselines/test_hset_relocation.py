"""Array-path GC relocation must equal the per-set reference path.

``HierarchicalSet._relocate_batch`` relocates a whole victim's valid
sets by gather/slice/scatter over the placement maps and the NAND state;
``_relocate_set`` is the per-set path that stays in charge under a
latency model and is the reference here.  Twin HSets
(Kangaroo mode) take identical writes, one relocating through the array
path and one through the per-set path, and every piece of state the two
touch must end up identical.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hset import CASE_PASSIVE, CASE_RELOCATE, HierarchicalSet
from repro.errors import DeviceError, EngineStateError, ReadError
from repro.flash.device import PAGE_ERASED, PAGE_PROGRAMMED
from repro.flash.geometry import FlashGeometry
from repro.flash.zns import ZNSDevice

PAGES_PER_BLOCK = 4
NUM_ZONES = 6


def make_hset(blocks_per_zone, *, per_set=False, spare_zones=1.5):
    """A Kangaroo-mode HSet (greedy victims) whose sets leave
    ``spare_zones`` zones of spare pages, so GC victims run from nearly
    to fully valid.

    ``per_set`` routes every GC relocation through ``_relocate_set``:
    the batch entry point is replaced by a loop of per-set calls over
    the same victim scan, so both twins relocate identical victims.
    """
    geo = FlashGeometry(
        page_size=4096,
        pages_per_block=PAGES_PER_BLOCK,
        num_blocks=NUM_ZONES * blocks_per_zone,
        blocks_per_zone=blocks_per_zone,
    )
    device = ZNSDevice(geo)
    ppz = geo.pages_per_zone
    evicted = []
    hset = HierarchicalSet(
        device,
        list(range(NUM_ZONES)),
        NUM_ZONES * ppz - int(spare_zones * ppz),
        fairywren=False,
        bucket_drainer=lambda b: [],
        is_hot=lambda k: False,
        on_evict=lambda k, s: evicted.append((k, s)),
    )
    if per_set:

        def relocate_each(set_ids):
            for set_id in np.asarray(set_ids).tolist():
                hset._relocate_set(set_id)

        hset._relocate_batch = relocate_each
    return hset, evicted


def apply_writes(hset, buckets):
    """One set write per entry; keys are fresh so every write is new."""
    for key, bucket in enumerate(buckets):
        hset.install_bucket(
            bucket % hset.num_buckets, [(key, 300)], case=CASE_PASSIVE
        )


def placement_state(hset):
    """The HSet's placement maps and zone bookkeeping."""
    return {
        "location": list(hset.location),
        "page_owner": list(hset._page_owner),
        "zone_valid": list(hset._zone_valid),
        "object_count": hset.object_count(),
        "open_zone": hset._open_zone,
        "free_zones": list(hset._free_zones),
        "zone_fifo": list(hset._zone_fifo),
    }


def full_state(hset, evicted=()):
    """Everything a relocation reads or writes, as plain values."""
    device = hset.device
    nand = device.nand
    return {
        **placement_state(hset),
        "zones": [(z.write_pointer, z.state) for z in device.zones],
        "state": bytes(nand._state),
        "payload": list(nand._payload),
        "programmed_in_block": [
            nand.programmed_pages_in_block(b) for b in range(len(nand.block_erases))
        ],
        "block_erases": list(nand.block_erases),
        "read_count": nand.read_count,
        "program_count": nand.program_count,
        "erase_count": nand.erase_count,
        "stats": dataclasses.asdict(device.stats),
        "case_writes": dict(hset.case_writes),
        "gc_valid_fractions": list(hset.gc_valid_fractions),
        "evicted": list(evicted),
    }


def assert_same_state(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], name


WRITES = st.lists(st.integers(0, 10_000), min_size=20, max_size=150)


@pytest.mark.parametrize("blocks_per_zone", [1, 4])
class TestGcParity:
    @settings(max_examples=30, deadline=None)
    @given(buckets=WRITES)
    def test_gc_rounds_match_per_set_path(self, blocks_per_zone, buckets):
        batch, batch_evicted = make_hset(blocks_per_zone)
        ref, ref_evicted = make_hset(blocks_per_zone, per_set=True)
        # Every set written once, then the random rewrites: victims are
        # mostly valid from the first GC round on.
        prefill = list(range(batch.num_buckets))
        apply_writes(batch, prefill + buckets)
        apply_writes(ref, prefill + buckets)
        assert batch.gc_runs > 0
        assert_same_state(
            full_state(batch, batch_evicted), full_state(ref, ref_evicted)
        )
        batch.check_invariants()
        ref.check_invariants()


@pytest.mark.parametrize("blocks_per_zone", [1, 4])
class TestDropCase:
    def test_fully_valid_victim_drops_one_set(self, blocks_per_zone):
        """The ``wp - 1`` case: a fully valid victim relocates all but
        its last set, which is dropped so the reclaim nets a page."""
        # One spare zone: once every set is written, every closed zone
        # is fully valid, so the greedy victim is too.
        batch, batch_evicted = make_hset(blocks_per_zone, spare_zones=1)
        ref, ref_evicted = make_hset(blocks_per_zone, per_set=True, spare_zones=1)
        last = batch.num_buckets - 1
        writes = list(range(batch.num_buckets)) + [last] * (
            3 * batch.device.geometry.pages_per_zone
        )
        apply_writes(batch, writes)
        apply_writes(ref, writes)
        assert 1.0 in batch.gc_valid_fractions
        assert batch_evicted  # the dropped sets' objects
        assert batch.gc_dropped_sets == ref.gc_dropped_sets > 0
        assert_same_state(
            full_state(batch, batch_evicted), full_state(ref, ref_evicted)
        )
        batch.check_invariants()


@pytest.mark.parametrize("blocks_per_zone", [1, 4])
class TestRelocateBatchParity:
    @settings(max_examples=30, deadline=None)
    @given(buckets=WRITES, data=st.data())
    def test_batch_matches_relocate_set_loop(self, blocks_per_zone, buckets, data):
        batch, _ = make_hset(blocks_per_zone)
        ref, _ = make_hset(blocks_per_zone)
        apply_writes(batch, buckets)
        apply_writes(ref, buckets)
        on_flash = [s for s, page in enumerate(batch.location) if page >= 0]
        ids = data.draw(
            st.lists(
                st.sampled_from(on_flash),
                unique=True,
                min_size=1,
                max_size=min(len(on_flash), batch._free_pages()),
            )
        )
        # As inside a GC round: appends must not start a nested GC.
        batch._in_gc = ref._in_gc = True
        batch._relocate_batch(ids)
        for set_id in ids:
            ref._relocate_set(set_id)
        batch._in_gc = ref._in_gc = False
        assert_same_state(full_state(batch), full_state(ref))
        batch.check_invariants()
        ref.check_invariants()

    def test_batch_straddles_zone_and_block_boundaries(self, blocks_per_zone):
        batch, _ = make_hset(blocks_per_zone)
        ref, _ = make_hset(blocks_per_zone)
        ppz = batch.device.geometry.pages_per_zone
        # Leave the open zone two pages short of full, mid-block.
        writes = list(range(ppz + ppz - 2))
        apply_writes(batch, writes)
        apply_writes(ref, writes)
        ids = list(range(ppz - 1, -1, -1))  # two zones' worth, reversed
        batch._in_gc = ref._in_gc = True
        batch._relocate_batch(ids)
        for set_id in ids:
            ref._relocate_set(set_id)
        batch._in_gc = ref._in_gc = False
        new_pages = sorted(batch.location[s] for s in ids)
        assert new_pages == list(range(2 * ppz - 2, 3 * ppz - 2))
        assert batch.case_writes[CASE_RELOCATE] == ppz
        assert_same_state(full_state(batch), full_state(ref))
        batch.check_invariants()


class TestRelocateBatchValidation:
    """The array path keeps the per-page NAND checks of the loop path."""

    def filled(self):
        hset, _ = make_hset(blocks_per_zone=4)
        apply_writes(hset, list(range(10)))
        hset._in_gc = True
        return hset

    def test_unprogrammed_source_raises_read_error(self):
        hset = self.filled()
        hset.device.nand._state[hset.location[4]] = PAGE_ERASED
        with pytest.raises(ReadError, match=f"page {hset.location[4]} "):
            hset._relocate_batch([3, 4, 5])

    def test_set_without_flash_copy_raises_read_error(self):
        hset = self.filled()
        assert hset.location[11] == -1
        with pytest.raises(ReadError):
            hset._relocate_batch([3, 11])

    def test_programmed_target_raises_device_error(self):
        hset = self.filled()
        zone = hset.device.zones[hset._open_zone]
        target = hset._open_zone * zone.capacity_pages + zone.write_pointer + 1
        hset.device.nand._state[target] = PAGE_PROGRAMMED
        with pytest.raises(DeviceError, match=f"page {target} ") as exc:
            hset._relocate_batch([3, 4, 5])
        assert not isinstance(exc.value, ReadError)


class TestCheckInvariants:
    def corrupt(self, mutate, match):
        hset, _ = make_hset(blocks_per_zone=1)
        apply_writes(hset, list(range(hset.num_buckets)) + [0, 1, 2, 3, 0, 1])
        hset.check_invariants()
        mutate(hset)
        with pytest.raises(EngineStateError, match=match):
            hset.check_invariants()

    def test_detects_owner_location_mismatch(self):
        def mutate(hset):
            hset._page_owner[hset.location[5]] = 6

        self.corrupt(mutate, "owned by set")

    def test_detects_lost_owner(self):
        def mutate(hset):
            hset._page_owner[hset.location[5]] = -1

        self.corrupt(mutate, "set 5 sits at page")

    def test_detects_unprogrammed_owned_page(self):
        def mutate(hset):
            hset.device.nand._state[hset.location[5]] = PAGE_ERASED

        self.corrupt(mutate, "not programmed")

    def test_detects_stale_zone_valid(self):
        def mutate(hset):
            hset._zone_valid[1] += 1

        self.corrupt(mutate, "valid counts")

    def test_detects_stale_object_count(self):
        def mutate(hset):
            hset._object_count -= 1

        self.corrupt(mutate, "object count")

    def test_detects_zone_in_two_lists(self):
        def mutate(hset):
            hset._free_zones.append(hset._zone_fifo[0])

        self.corrupt(mutate, "partition")

    def test_detects_open_zone_outside_fifo(self):
        def mutate(hset):
            hset._open_zone = hset._free_zones[0]

        self.corrupt(mutate, "open zone")
