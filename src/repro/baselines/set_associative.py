"""Set-associative flash cache (the paper's "Set" baseline, CacheLib-style).

Keys hash into fixed 4 KiB sets, each one logical block of a conventional
SSD; lookups read one page, so no per-object flash offsets are kept in
DRAM — the memory floor of Table 1.  The price is write amplification:
inserting one ~246 B object rewrites the whole 4 KiB set (read-modify-
write), an ALWA of ~16×, and the scattered in-place overwrites force
device GC, which Meta suppresses with 50 % over-provisioning in
production (§2.3) — reproduced here by running on a
:class:`~repro.flash.conventional.ConventionalSSD` with ``op_ratio=0.5``.

DRAM cost is ~4 bits/object (the paper's figure): a small per-set bloom
filter that lets misses skip the flash read.  The simulator models the
filter's effect exactly (sets know their members) and reports the 4-bit
cost analytically.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.base import CacheEngine
from repro.errors import AlignmentError, ConfigError, ObjectTooLargeError, ReadError
from repro.flash.conventional import ConventionalSSD
from repro.flash.device import PAGE_PROGRAMMED
from repro.flash.ftl import UNMAPPED
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel

#: CacheLib's per-set negative-lookup bloom filter budget (paper: "the
#: lowest memory cost (4 bits/obj)").
BLOOM_BITS_PER_OBJECT = 4.0


class _Set:
    """In-DRAM mirror of one set's membership (key → size).

    CacheLib keeps per-set bloom filters in DRAM; mirroring exact
    membership lets the simulator implement their *effect* (skip flash
    reads for absent keys) without materialising bit arrays.  FIFO
    eviction order within the set follows insertion order (dicts are
    ordered).
    """

    __slots__ = ("objects", "used_bytes")

    def __init__(self) -> None:
        self.objects: dict[int, int] = {}
        self.used_bytes = 0


class SetAssociativeCache(CacheEngine):
    """CacheLib-style set-associative cache on a conventional SSD."""

    name = "Set"

    def __init__(
        self,
        geometry: FlashGeometry,
        *,
        op_ratio: float = 0.5,
        latency: LatencyModel | None = None,
        hash_seed: int = 0,
    ) -> None:
        super().__init__()
        self.geometry = geometry
        self.device = ConventionalSSD(
            geometry, op_ratio=op_ratio, stats=self.stats, latency=latency
        )
        self.num_sets = self.device.num_lbas
        if self.num_sets <= 0:
            raise ConfigError("geometry leaves no usable sets")
        self.hash_seed = hash_seed
        self._sets: list[_Set] = [_Set() for _ in range(self.num_sets)]
        self._object_count = 0

    # ------------------------------------------------------------------
    def columnar_spec(self) -> tuple[int, int]:
        """Placement column spec: ``hash64(key, seed) % num_sets``."""
        return (self.hash_seed, self.num_sets)

    def _lookup_at(
        self, key: int, size: int, placement: int, now_us: float
    ) -> tuple[bool, float]:
        """Probe set ``placement`` through the device stack."""
        self.counters.lookups += 1
        obj_size = self._sets[placement].objects.get(key)
        if obj_size is None:
            # The per-set bloom filter rejects the key without flash I/O.
            return False, 0.0
        _, lat = self.device.read(placement, now_us=now_us)
        self.counters.hits += 1
        self.stats.logical_read_bytes += obj_size
        return True, lat

    def _insert_at(self, key: int, size: int, placement: int, now_us: float) -> None:
        """Admit ``key`` into set ``placement`` (read-modify-write)."""
        sid = placement
        if size > self.geometry.page_size:
            raise ObjectTooLargeError(
                f"object of {size} B exceeds the {self.geometry.page_size} B set"
            )
        sset = self._sets[sid]

        self.record_admission(size)
        if key in sset.objects:
            sset.used_bytes -= sset.objects.pop(key)
            self._object_count -= 1

        # Read-modify-write: the whole set page is read (if it exists on
        # flash) and rewritten for this one tiny object.
        if self.device.is_mapped(sid):
            self.device.read(sid, now_us=now_us)

        # FIFO eviction inside the set until the object fits.
        while sset.used_bytes + size > self.geometry.page_size:
            old_key, old_size = next(iter(sset.objects.items()))
            del sset.objects[old_key]
            sset.used_bytes -= old_size
            self._object_count -= 1
            self.counters.evicted_objects += 1
            self.counters.evicted_bytes += old_size

        sset.objects[key] = size
        sset.used_bytes += size
        self._object_count += 1
        # The flash page carries the live membership dict itself (not a
        # copy): the DRAM mirror stays authoritative — set pages are
        # never read back for content — so snapshotting per insert
        # would be pure copy churn.
        self.device.write(sid, sset.objects, now_us=now_us)

    # ------------------------------------------------------------------
    # Bulk GET path (batched replay dispatch)
    # ------------------------------------------------------------------
    # Same per-request semantics as the base-class ``_get_many``, on the
    # precomputed key→set column (``offsets``, hashed per chunk by the
    # replay runner; a direct caller that passes none gets one
    # vectorised sweep here).  The set mirror is probed directly, the
    # FTL-read validation (mapped LBA, physical page in range and
    # programmed) stays inline, a timed device's latency model is asked
    # per flash hit in request order, and the read counters flush once
    # per run — nothing observes them mid-run, the harness samples only
    # at chunk boundaries.

    def lookup_many(
        self,
        keys: list[int],
        sizes: list[int],
        now_us: float,
        step_us: float,
        record: Callable[[float], None] | None = None,
        *,
        offsets: list[int] | None = None,
    ) -> float:
        if offsets is None:
            offsets = self._placement_column(keys).tolist()
        device = self.device
        latency = device.latency
        insert_at = self._insert_at
        sets = self._sets
        ftl = device.ftl
        l2p = ftl._l2p
        nand = ftl.nand
        state = nand._state
        num_pages = nand._num_pages
        hits = read_bytes = 0
        for key, size, sid in zip(keys, sizes, offsets):
            obj_size = sets[sid].objects.get(key)
            lat = 0.0
            if obj_size is None:
                insert_at(key, size, sid, now_us)
            else:
                ppn = l2p[sid]
                if ppn == UNMAPPED:
                    raise ReadError(f"LBA {sid} is unmapped")
                if not 0 <= ppn < num_pages:
                    raise AlignmentError(f"page {ppn} out of range [0, {num_pages})")
                if state[ppn] != PAGE_PROGRAMMED:
                    raise ReadError(f"page {ppn} is not programmed")
                hits += 1
                read_bytes += obj_size
                if latency is not None:
                    lat = latency.read(ppn, now_us)
            if record is not None:
                record(lat)
            now_us += step_us
        self.counters.lookups += len(keys)
        self.counters.hits += hits
        stats = self.stats
        stats.logical_read_bytes += read_bytes
        if hits:
            nand.read_count += hits
            stats.record_page_reads(hits, self.geometry.page_size)
        return now_us

    def delete(self, key: int) -> bool:
        sset = self._sets[self._placement_of(key)]
        if key not in sset.objects:
            return False
        sset.used_bytes -= sset.objects.pop(key)
        self._object_count -= 1
        self.counters.deletes += 1
        # Deletion is metadata-only; the stale flash copy dies at the
        # next set rewrite.
        return True

    def object_count(self) -> int:
        return self._object_count

    def memory_overhead_bits_per_object(self) -> float:
        return BLOOM_BITS_PER_OBJECT

    @property
    def write_amplification(self) -> float:
        """Total WA = ALWA x DLWA (conventional device: GC is internal)."""
        return self.stats.total_wa
