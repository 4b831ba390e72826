"""Array-path GC relocation must equal the per-set reference path.

``HierarchicalSet._relocate_batch`` relocates a whole victim's valid
sets through ``ZNSDevice.copy_many`` and one scatter over the placement
maps; ``_relocate_set`` (one background read and one append per set,
FW's hot-set path) is the reference here.  Twin HSets (Kangaroo mode)
take identical writes, one relocating through the array path and one
through the per-set path, and every piece of state the two touch must
end up identical — with no latency model, and with an analytic or an
event latency model attached to both twins (whose models must then end
in the same state too).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hset import CASE_PASSIVE, CASE_RELOCATE, HierarchicalSet
from repro.errors import DeviceError, EngineStateError, ReadError
from repro.flash.device import PAGE_ERASED, PAGE_PROGRAMMED
from repro.flash.devsim import make_latency_model
from repro.flash.devsim.model import EventLatencyModel
from repro.flash.geometry import FlashGeometry
from repro.flash.zns import ZNSDevice

PAGES_PER_BLOCK = 4
NUM_ZONES = 6


def make_hset(blocks_per_zone, *, per_set=False, spare_zones=1.5, lane=None):
    """A Kangaroo-mode HSet (greedy victims) whose sets leave
    ``spare_zones`` zones of spare pages, so GC victims run from nearly
    to fully valid.

    ``per_set`` routes every GC relocation through ``_relocate_set``:
    the batch entry point is replaced by a loop of per-set calls over
    the same victim scan, so both twins relocate identical victims.
    ``lane`` attaches a fresh latency model of that lane to the device.
    """
    geo = FlashGeometry(
        page_size=4096,
        pages_per_block=PAGES_PER_BLOCK,
        num_blocks=NUM_ZONES * blocks_per_zone,
        blocks_per_zone=blocks_per_zone,
    )
    device = ZNSDevice(
        geo, latency=None if lane is None else make_latency_model(lane)
    )
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

        def relocate_each(set_ids, *, now_us=0.0):
            for set_id in np.asarray(set_ids).tolist():
                hset._relocate_set(set_id, now_us=now_us)

        hset._relocate_batch = relocate_each
    return hset, evicted


def apply_writes(hset, buckets):
    """One set write per entry; keys are fresh so every write is new.

    Write ``i`` is issued at ``i`` µs, so a latency model sees its
    relocation reads and programs queue behind earlier work.
    """
    for key, bucket in enumerate(buckets):
        hset.install_bucket(
            bucket % hset.num_buckets,
            [(key, 300)],
            case=CASE_PASSIVE,
            now_us=float(key),
        )


def placement_state(hset):
    """The HSet's placement maps and zone bookkeeping."""
    return {
        "location": list(hset.location),
        "page_owner": list(hset._page_owner),
        "zone_valid": list(hset._zone_valid),
        "object_count": hset.object_count(),
        "open_zone": hset.region.open,
        "free_zones": list(hset.region.free),
        "zone_fifo": list(hset.region.written),
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
        "latency": latency_state(device.latency),
    }


def latency_state(model):
    """A latency model's whole timing state: the analytic lane's
    channel horizons and read cache, and the event lane's completed
    ops, preemptions and per-die queue tails."""
    if model is None:
        return None
    state = {
        "busy_until": list(model._busy_until),
        "busy_is_program": bytes(model._busy_is_program),
        "read_cache": list(model._read_cache),
    }
    if isinstance(model, EventLatencyModel):
        state["completed_ops"] = model.completed_ops
        state["preemptions"] = model.total_preemptions
        state["dies"] = [
            (d.now, d.fg_tail, d.bg_tail, d.write_tail, d.busy_horizon())
            for d in model.dies
        ]
    return state


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
                max_size=min(len(on_flash), batch.region.free_pages()),
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


@pytest.mark.parametrize("blocks_per_zone", [1, 4])
@pytest.mark.parametrize("lane", ["analytic", "event"])
class TestTimedGcParity:
    """The twin comparisons above, with a latency model on both twins:
    ``copy_many`` times each read/program pair exactly as the per-set
    path's ``read(background=True)`` and ``append`` do."""

    @settings(max_examples=15, deadline=None)
    @given(buckets=WRITES)
    def test_gc_rounds_match_per_set_path(self, lane, blocks_per_zone, buckets):
        batch, batch_evicted = make_hset(blocks_per_zone, lane=lane)
        ref, ref_evicted = make_hset(blocks_per_zone, per_set=True, lane=lane)
        prefill = list(range(batch.num_buckets))
        apply_writes(batch, prefill + buckets)
        apply_writes(ref, prefill + buckets)
        assert batch.gc_runs > 0
        state = full_state(batch, batch_evicted)
        assert state["latency"] != latency_state(make_latency_model(lane))
        assert_same_state(state, full_state(ref, ref_evicted))

    def test_fully_valid_victim_drops_one_set(self, lane, blocks_per_zone):
        batch, batch_evicted = make_hset(blocks_per_zone, spare_zones=1, lane=lane)
        ref, ref_evicted = make_hset(
            blocks_per_zone, per_set=True, spare_zones=1, lane=lane
        )
        last = batch.num_buckets - 1
        writes = list(range(batch.num_buckets)) + [last] * (
            3 * batch.device.geometry.pages_per_zone
        )
        apply_writes(batch, writes)
        apply_writes(ref, writes)
        assert batch.gc_dropped_sets == ref.gc_dropped_sets > 0
        assert_same_state(
            full_state(batch, batch_evicted), full_state(ref, ref_evicted)
        )

    def test_batch_straddles_zone_and_block_boundaries(self, lane, blocks_per_zone):
        batch, _ = make_hset(blocks_per_zone, lane=lane)
        ref, _ = make_hset(blocks_per_zone, lane=lane)
        ppz = batch.device.geometry.pages_per_zone
        writes = list(range(ppz + ppz - 2))
        apply_writes(batch, writes)
        apply_writes(ref, writes)
        ids = list(range(ppz - 1, -1, -1))
        now = float(len(writes))
        batch._in_gc = ref._in_gc = True
        batch._relocate_batch(ids, now_us=now)
        for set_id in ids:
            ref._relocate_set(set_id, now_us=now)
        batch._in_gc = ref._in_gc = False
        assert_same_state(full_state(batch), full_state(ref))


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

    @pytest.mark.parametrize(
        "relocate",
        [lambda hset: hset._relocate_batch([3, 11]), lambda hset: hset._relocate_set(11)],
        ids=["_relocate_batch", "_relocate_set"],
    )
    def test_set_without_flash_copy_raises_read_error(self, relocate):
        hset = self.filled()
        assert hset.location[11] == -1
        with pytest.raises(ReadError):
            relocate(hset)

    def test_programmed_target_raises_device_error(self):
        hset = self.filled()
        zone = hset.device.zones[hset.region.open]
        target = hset.region.open * zone.capacity_pages + zone.write_pointer + 1
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
            hset.region.free.append(hset.region.written[0])

        self.corrupt(mutate, "partition")

    def test_detects_open_zone_outside_fifo(self):
        def mutate(hset):
            hset.region._open = hset.region.free[0]

        self.corrupt(mutate, "open zone")
