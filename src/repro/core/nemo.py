"""The Nemo cache engine (§4): insert / lookup / eviction over ZNS.

Data path summary (Figure 7):

- **Insert** ①: hash the key to an intra-SG offset; place the object in
  the front-most in-memory SG with room at that offset.  When every
  queued SG's target set is full, the flush policy (§4.2 ②) either
  defers (evicting from the front SG's set) or flushes the front SG to
  an empty zone as one batched sequential write.
- **Lookup** ②: check the in-memory SGs; otherwise query the set-level
  PBFGs — one index page per live index group, served from the FIFO
  index cache or read from the on-flash index pool — and read all
  candidate SGs' sets in parallel.
- **Eviction** ③: when the SG pool is full, the oldest on-flash SG is
  evicted; hotness-aware writeback (§4.2 ③) re-inserts its hot objects
  into the SG about to be flushed, raising that SG's fill and keeping
  hot objects cached.

Write-amplification accounting follows §5.2 exactly: written-back
objects are **not** logical writes; the WA denominator is the bytes of
objects newly written by the first two techniques, *including* objects
evicted early by the delayed-flush technique.

Index modelling: membership is resolved exactly (``_flash_index``) and
false positives are drawn from the configured filter rate.  The index
pool writes and reads the pages real set-level PBFGs would occupy
(with placeholder payloads), so page-level index traffic (the part
Figures 19a/19b measure) is that of real filters.  The test suite keeps
a real-filter engine as the oracle (``tests/core/reference``).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Collection

from repro.baselines.base import CacheEngine
from repro.core.bloom import bloom_bits_per_object
from repro.core.config import PLACEMENT_SEED, NemoConfig
from repro.core.flusher import FlushDecision, FlushPolicy
from repro.core.hotness import HotnessTracker
from repro.core.index_cache import IndexCache, IndexPool
from repro.core.pbfg import IndexGroupBuilder, IndexLayout
from repro.core.sgqueue import SetGroupQueue
from repro.errors import (
    AlignmentError,
    ConfigError,
    EngineStateError,
    ObjectTooLargeError,
    ReadError,
)
from repro.flash.device import PAGE_PROGRAMMED
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel
from repro.flash.region import ZoneRegion
from repro.flash.zns import ZNSDevice
import numpy as np


@dataclass
class FlashSG:
    """An immutable on-flash Set-Group in the FIFO pool.

    An SG occupies one whole zone (§4.1, the ZN540 mapping), whose first
    physical page is ``page_base``: set ``offset`` sits at
    ``page_base + offset``.
    """

    sg_id: int
    zone_id: int
    page_base: int
    #: Per-set membership mirrors (what the flash pages hold).
    sets: list[dict[int, int]]
    fill_rate: float
    new_fill_rate: float

    def page_of(self, offset: int) -> int:
        """Physical page holding set ``offset``."""
        return self.page_base + offset


class NemoCache(CacheEngine):
    """Nemo: low-write-amplification flash cache for tiny objects."""

    name = "Nemo"

    def __init__(
        self,
        geometry: FlashGeometry,
        config: NemoConfig | None = None,
        *,
        latency: LatencyModel | None = None,
    ) -> None:
        super().__init__()
        self.geometry = geometry
        self.config = config if config is not None else NemoConfig()
        self.device = ZNSDevice(geometry, stats=self.stats, latency=latency)
        self._rng = random.Random(self.config.rng_seed)

        self.set_size = geometry.page_size
        # One SG per zone, the device's erase unit (§4.1).
        self.sets_per_sg = geometry.pages_per_zone

        self.layout = IndexLayout(
            page_size=geometry.page_size,
            sets_per_sg=self.sets_per_sg,
            sgs_per_group=self.config.sgs_per_index_group,
            bf_capacity=self.config.bf_capacity_per_set,
            bf_false_positive_rate=self.config.bf_false_positive_rate,
        )

        sg_zone_count, index_zone_count = self._split_zones()
        # One pool SG per zone: zones [0, pool_capacity_sgs) hold SGs.
        self.pool_capacity_sgs = sg_zone_count
        self.sg_region = ZoneRegion(self.device, range(sg_zone_count))

        self.queue = SetGroupQueue(
            self.config.effective_inmem_sgs, self.sets_per_sg, self.set_size
        )
        self.flush_policy = FlushPolicy(self.config)

        self.index_builder = IndexGroupBuilder(self.layout)
        self.index_pool = IndexPool(
            self.device,
            list(range(sg_zone_count, sg_zone_count + index_zone_count)),
            self.layout,
        )
        steady_groups = -(-self.pool_capacity_sgs // self.layout.sgs_per_group)
        cache_pages = int(
            round(
                self.config.cached_index_ratio
                * steady_groups
                * self.layout.pages_per_group
            )
        )
        self.index_cache = IndexCache(
            cache_pages, num_page_indices=self.layout.pages_per_group
        )
        self.index_pool.on_group_dead = self.index_cache.drop_group

        self.hotness = HotnessTracker(
            self.config.hotness_window_fraction,
            page_idx_cached=self.index_cache.page_idx_cached,
            page_of_offset=self.layout.page_of_offset,
            num_offsets=self.sets_per_sg,
        )

        # Hot-path constants: offsets per index page (every page one
        # consult touches shares ``offset // _offsets_per_page``) and
        # the hotness window limit in SG positions.
        self._offsets_per_page = self.layout.offsets_per_page
        self._window_sgs = (
            self.config.hotness_window_fraction * self.pool_capacity_sgs
        )

        # On-flash SG pool (FIFO, oldest first) and exact lookup maps.
        self.pool: deque[FlashSG] = deque()
        self._pool_map: dict[int, FlashSG] = {}
        self._flash_index: dict[int, int] = {}  # key -> newest holder sg_id
        self._flash_copies: dict[int, int] = {}  # key -> live flash copies

        # Telemetry.
        self.fill_rates: list[float] = []
        self.new_fill_rates: list[float] = []
        self.early_evicted_objects = 0
        self.early_evicted_bytes = 0
        self.writeback_objects = 0
        self.writeback_bytes = 0
        self.writeback_reads = 0
        self.false_positive_reads = 0
        self.pbfg_touches = 0
        self.pbfg_pool_reads = 0
        #: Requests that consulted PBFGs at all / that needed >=1 page
        #: from the on-flash index pool (Fig. 19b's per-request ratio).
        self.pbfg_lookups = 0
        self.pbfg_lookups_from_pool = 0
        self._bytes_at_last_cooling = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _split_zones(self) -> tuple[int, int]:
        """Partition zones between the SG pool and the index pool.

        Iterates to a fixed point: the index pool must hold one group
        per ``sgs_per_group`` pool SGs (plus one in flight), whole
        groups per zone.
        """
        total = self.geometry.num_zones
        ppz = self.geometry.pages_per_zone
        if self.layout.pages_per_group > ppz:
            raise ConfigError(
                "an index group must fit one zone: lower sgs_per_index_group"
                f" ({self.layout.pages_per_group} pages > {ppz}/zone)"
            )
        groups_per_zone = max(1, ppz // self.layout.pages_per_group)
        index_zones = 1
        for _ in range(12):
            sg_zones = total - index_zones
            if sg_zones < 2:
                raise ConfigError(
                    f"device too small: {total} zones cannot host an SG "
                    "pool plus the index pool"
                )
            need_groups = -(-sg_zones // self.layout.sgs_per_group) + 1
            need_zones = -(-need_groups // groups_per_zone) + 1
            if need_zones <= index_zones:
                return sg_zones, index_zones
            index_zones = need_zones
        raise ConfigError("zone split did not converge; check the geometry")

    def columnar_spec(self) -> tuple[int, int]:
        """Placement column spec: ``hash64(key, seed) % sets_per_sg``."""
        return (PLACEMENT_SEED, self.sets_per_sg)

    # ------------------------------------------------------------------
    # CacheEngine API
    # ------------------------------------------------------------------
    def _insert_at(self, key: int, size: int, placement: int, now_us: float) -> None:
        """Admit ``key`` at its already hashed set offset."""
        if size > self.set_size:
            raise ObjectTooLargeError(
                f"object of {size} B exceeds the {self.set_size} B set"
            )
        self.record_admission(size)
        if self.queue.try_insert(placement, key, size):
            return
        self._insert_blocked(placement, key, size, now_us)

    def _insert_blocked(
        self, offset: int, key: int, size: int, now_us: float
    ) -> None:
        """Slow path: the target set is full in every in-memory SG."""
        decision = self.flush_policy.decide()
        if decision is FlushDecision.MAKE_ROOM:
            evicted = self.queue.front.evict_from_set(offset, size)
            for _k, s in evicted:
                self.early_evicted_objects += 1
                self.early_evicted_bytes += s
                self.counters.evicted_objects += 1
                self.counters.evicted_bytes += s
            if not self.queue.front.try_insert(offset, key, size):
                raise EngineStateError("insert failed after making room")
            return
        self._flush_front(now_us=now_us)
        if not self.queue.try_insert(offset, key, size):
            raise EngineStateError("insert failed after flushing the front SG")

    # ------------------------------------------------------------------
    # Index side: one PBFG page per live index group
    # ------------------------------------------------------------------
    def _consult_index(self, offset: int, now_us: float) -> tuple[int, float]:
        """Index side of one consult: ``(pool_page_reads, latency_us)``.

        Every page the consult touches shares one group-page index, so
        "all cached" is the O(1) :meth:`IndexCache.resident` test and a
        plain-FIFO hit mutates nothing.  Otherwise the pages are
        admitted one by one and the misses read from the index pool.
        """
        self.pbfg_lookups += 1
        cache = self.index_cache
        n_live = self.index_pool.live_group_count()
        if cache.resident(offset // self._offsets_per_page, n_live):
            self.pbfg_touches += n_live
            cache.hits += n_live
            return 0, 0.0
        entries = self.index_pool.pages_for_offset(offset)
        self.pbfg_touches += len(entries)
        access = cache.access
        miss_pages = [physical for page, physical in entries if not access(page)]
        self.pbfg_pool_reads += len(miss_pages)
        self.pbfg_lookups_from_pool += 1
        return len(miss_pages), self.device.read_many(miss_pages, now_us)

    def _consult_index_many(self, offsets: np.ndarray) -> None:
        """Index side of a run of consults, in request order.

        The caller guarantees a constant live-group set (no flush or
        eviction inside the run) and a latency-free device.  Residency
        is resolved once per distinct page index; the all-resident
        prefix settles as three counter bumps.  From the first miss on,
        FIFO admission makes residency state-dependent, so the rest of
        the run takes :meth:`_consult_index` one consult at a time.
        """
        n_live = self.index_pool.live_group_count()
        cache = self.index_cache
        page_idx = offsets // self._offsets_per_page
        distinct, inverse = np.unique(page_idx, return_inverse=True)
        resident = np.fromiter(
            (cache.resident(p, n_live) for p in distinct.tolist()),
            dtype=bool,
            count=len(distinct),
        )[inverse]
        n_prefix = len(offsets) if resident.all() else int(resident.argmin())
        self.pbfg_lookups += n_prefix
        self.pbfg_touches += n_prefix * n_live
        cache.hits += n_prefix * n_live
        consult = self._consult_index
        for offset in offsets[n_prefix:].tolist():
            consult(offset, 0.0)

    # ------------------------------------------------------------------
    # Bulk replay paths (batched dispatch)
    # ------------------------------------------------------------------
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
        """Batched GET run with read-through admission.

        Per-request semantics, counter totals and RNG draw sequence are
        identical to :meth:`_lookup_at` + ``_insert_at``-on-miss; the key
        hash is consumed as a precomputed column (``offsets``, hashed
        per chunk by the replay runner; a direct caller that passes
        none gets one vectorised sweep here).

        The run is one inline loop on every lane: the in-memory probe
        walks the SG-queue set dicts directly, then the all-resident
        index test (a non-resident consult still goes through
        :meth:`_consult_index` and takes its latency), the
        false-positive draws of :meth:`_lookup_at` in order, the
        false-positive and holder page reads with
        ``ZNSDevice.read_many``'s checks — on a timed device one
        latency-model ``read_many`` of them, in that order — and the
        hotness bit.
        ``record`` gets each GET's latency as :meth:`_get_many` gives it.
        Request, read, PBFG and index-cache counters add up once per run
        (nothing observes them mid-run — the harness samples only at
        chunk boundaries).
        """
        if offsets is None:
            offsets = self._placement_column(keys).tolist()
        latency = self.device.latency
        read_many = None if latency is None else latency.read_many
        counters = self.counters
        queue_dq = self.queue._queue
        pool = self.pool
        set_size = self.set_size
        try_insert = self.queue.try_insert
        hotness = self.hotness
        window_sgs = self._window_sgs
        consult = self._consult_index
        index_pool = self.index_pool
        page_counts = self.index_cache._page_idx_counts
        opp = self._offsets_per_page
        flash_index = self._flash_index
        pool_map = self._pool_map
        rng_random = self._rng.random
        randrange = self._rng.randrange
        fp_rate = self.config.bf_false_positive_rate
        state = self.device.nand._state
        num_pages = self.device.nand._num_pages
        lookups = hits = inserts = insert_bytes = read_bytes = 0
        resident = touches = n_fp = page_reads = 0
        for key, size, offset in zip(keys, sizes, offsets):
            lookups += 1
            mem_size = None
            for sg in queue_dq:
                mem_size = sg.sets[offset].objects.get(key)
                if mem_size is not None:
                    break
            if mem_size is not None:
                hits += 1
                read_bytes += mem_size
                if record is not None:
                    record(0.0)
                now_us += step_us
                continue
            lat = 0.0
            if pool:
                n_live = index_pool._live_groups
                if page_counts[offset // opp] == n_live:
                    resident += 1
                    touches += n_live
                else:
                    lat = consult(offset, now_us)[1]
                holder_id = flash_index.get(key)
                holder = None if holder_id is None else pool_map[holder_id]
                n_pool = len(pool)
                n_scanned = (
                    n_pool
                    if holder is None
                    else n_pool - 1 - (holder.sg_id - pool[0].sg_id)
                )
                read: tuple[FlashSG, ...] = ()
                if n_scanned > 0 and rng_random() < n_scanned * fp_rate:
                    n_fp += 1
                    read = (pool[randrange(n_pool)],)
                if holder is not None:
                    read += (holder,)
                for fsg in read:
                    page = fsg.page_base + offset  # page_of inlined
                    if not 0 <= page < num_pages:
                        raise AlignmentError(
                            f"page {page} out of range [0, {num_pages})"
                        )
                    if state[page] != PAGE_PROGRAMMED:
                        raise ReadError(f"page {page} is not programmed")
                page_reads += len(read)
                if read_many is not None and read:
                    # One timed read of the pages just checked, in order.
                    read_lat = read_many(
                        [fsg.page_base + offset for fsg in read], now_us
                    )
                    if read_lat > lat:
                        lat = read_lat
                if holder is not None:
                    hits += 1
                    read_bytes += holder.sets[offset][key]
                    if (holder.sg_id - pool[0].sg_id) < window_sgs:
                        hotness._bits[key] = offset  # record_access inlined
                    if record is not None:
                        record(lat)
                    now_us += step_us
                    continue
            # Miss: read-through admission (offset hash reused).
            if size > set_size:
                raise ObjectTooLargeError(
                    f"object of {size} B exceeds the {set_size} B set"
                )
            inserts += 1
            insert_bytes += size
            if not try_insert(offset, key, size):
                self._insert_blocked(offset, key, size, now_us)
            if record is not None:
                record(lat)
            now_us += step_us
        counters.lookups += lookups
        counters.hits += hits
        counters.inserts += inserts
        counters.insert_bytes += insert_bytes
        stats = self.stats
        stats.logical_write_bytes += insert_bytes
        stats.logical_read_bytes += read_bytes
        self.pbfg_lookups += resident
        self.pbfg_touches += touches
        self.index_cache.hits += touches
        self.false_positive_reads += n_fp
        self.device.record_reads(page_reads)
        return now_us

    def _lookup_at(
        self, key: int, size: int, placement: int, now_us: float
    ) -> tuple[bool, float]:
        """One GET probe at set offset ``placement`` on any lane: the
        memory probe, the all-resident index test (a non-resident consult
        calls :meth:`_consult_index` and takes its latency), the
        statistical candidate scan, the page reads through
        ``ZNSDevice.read_many`` (NAND checks and latency model kept) and the
        hotness bit.  Counters are bumped per call, and
        ``hotness._bits`` is looked up per hit, since ``cool()`` rebinds
        it.

        The candidate scan runs newest-first and stops at the first
        verified hit: stale copies sit in *older* SGs and are never
        read, so only false positives among the ``n_scanned`` SGs newer
        than the holder (all SGs on a miss) cost a read.  One
        ``random()`` draw decides whether any of them fired
        (P ≈ n_scanned · fp at the small rates used here) and a
        ``randrange`` picks the pool SG read for it."""
        offset = placement
        counters = self.counters
        counters.lookups += 1
        for sg in self.queue._queue:
            mem_size = sg.sets[offset].objects.get(key)
            if mem_size is not None:
                counters.hits += 1
                self.stats.logical_read_bytes += mem_size
                return True, 0.0
        pool = self.pool
        if not pool:
            return False, 0.0
        n_live = self.index_pool._live_groups
        if self.index_cache._page_idx_counts[offset // self._offsets_per_page] == n_live:
            self.pbfg_lookups += 1
            self.pbfg_touches += n_live
            self.index_cache.hits += n_live
            latency = 0.0
        else:
            latency = self._consult_index(offset, now_us)[1]
        holder_id = self._flash_index.get(key)
        holder = None if holder_id is None else self._pool_map[holder_id]
        n_pool = len(pool)
        n_scanned = (
            n_pool if holder is None else n_pool - 1 - (holder.sg_id - pool[0].sg_id)
        )
        pages: list[int] = []
        rng = self._rng
        if n_scanned > 0 and rng.random() < n_scanned * self.config.bf_false_positive_rate:
            self.false_positive_reads += 1
            pages.append(pool[rng.randrange(n_pool)].page_base + offset)
        if holder is not None:
            pages.append(holder.page_base + offset)
        if pages:
            latency = max(latency, self.device.read_many(pages, now_us))
        if holder is None:
            return False, latency
        counters.hits += 1
        self.stats.logical_read_bytes += holder.sets[offset][key]
        if (holder.sg_id - pool[0].sg_id) < self._window_sgs:
            self.hotness._bits[key] = offset  # record_access inlined
        return True, latency

    def delete(self, key: int) -> bool:
        offset = self._placement_of(key)
        removed = self.queue.remove(offset, key)
        if self._flash_copies.pop(key, 0):
            self._flash_index.pop(key, None)
            for fsg in self.pool:
                fsg.sets[offset].pop(key, None)
            removed = True
        if removed:
            self.hotness.discard(key)
            self.counters.deletes += 1
        return removed

    def object_count(self) -> int:
        """Distinct resident keys: every key with a flash copy (stale
        copies in older SGs are not counted again) plus the in-memory
        keys that have none."""
        in_flash = self._flash_index.__contains__
        count = len(self._flash_index)
        for sg in self.queue:
            for s in sg.sets:
                count += len(s.objects) - sum(map(in_flash, s.objects))
        return count

    def memory_overhead_breakdown(self) -> dict[str, float]:
        """Table 6 accounting for Nemo, per component (bits/object).

        ``index``: cached share of the set-level filters; ``evict``: the
        windowed 1-bit counters; ``buffer``: the in-memory index-group
        buffer amortised over the object population.  The buffer term is
        fixed-size (one index group), so it is ~0.8 b at the paper's
        2 TB scale but dominates on MiB-scale simulated devices — report
        it separately when comparing against the paper's 8.3 b.
        """
        bf_bits = bloom_bits_per_object(self.config.bf_false_positive_rate)
        mean_obj = (
            self.counters.insert_bytes / self.counters.inserts
            if self.counters.inserts
            else 246.0
        )
        capacity_objects = (
            self.pool_capacity_sgs * self.sets_per_sg * self.set_size / mean_obj
        )
        buffer_bytes = self.layout.pages_per_group * self.geometry.page_size
        return {
            "index": bf_bits * self.config.cached_index_ratio,
            "evict": self.hotness.bits_per_object(),
            "buffer": buffer_bytes * 8.0 / capacity_objects,
        }

    def memory_overhead_bits_per_object(self) -> float:
        """Total Table 6 accounting (paper: 8.3 bits/obj at 2 TB scale)."""
        return sum(self.memory_overhead_breakdown().values())

    # ------------------------------------------------------------------
    # Candidate side, in bulk (columnar kernel)
    # ------------------------------------------------------------------
    def _draw_false_positives(self, n_scanned: np.ndarray) -> int:
        """Statistical FP draws for a run of consults; returns the FPs.

        One linear pass over the consults that scan at least one SG, in
        request order: the ``random()`` per consult and the
        ``randrange`` per false positive that :meth:`_lookup_at`'s
        candidate scan consumes, draw for draw.
        """
        rng_random = self._rng.random
        randrange = self._rng.randrange
        n_pool = len(self.pool)
        n_fp = 0
        for thr in (n_scanned * self.config.bf_false_positive_rate).tolist():
            if rng_random() < thr:
                randrange(n_pool)
                n_fp += 1
        self.false_positive_reads += n_fp
        return n_fp

    # ------------------------------------------------------------------
    # Flush + eviction
    # ------------------------------------------------------------------
    def _flush_front(self, *, now_us: float = 0.0) -> None:
        if not self.sg_region.free:
            self._evict_oldest_sg(now_us=now_us)
        front = self.queue.pop_front_for_flush()
        zone_id = self.sg_region.zone_with_room(self.sets_per_sg)
        assert zone_id is not None  # a zone was freed above

        # Fill rates first: the zero-copy handoff below empties the sets.
        fill_rate = front.fill_rate()
        new_fill_rate = front.new_fill_rate()
        payloads = front.take_payloads()
        # Each page carries its set dict, the live object aliased into
        # FlashSG.sets.
        pages, _ = self.device.append_many(zone_id, payloads, now_us=now_us)
        fsg = FlashSG(
            sg_id=front.sg_id,
            zone_id=zone_id,
            page_base=pages[0],
            sets=payloads,
            fill_rate=fill_rate,
            new_fill_rate=new_fill_rate,
        )
        self.pool.append(fsg)
        self._pool_map[fsg.sg_id] = fsg
        self.fill_rates.append(fsg.fill_rate)
        self.new_fill_rates.append(fsg.new_fill_rate)

        for offset, objs in enumerate(payloads):
            for key in objs:
                self._flash_copies[key] = self._flash_copies.get(key, 0) + 1
                self._flash_index[key] = fsg.sg_id

        self.index_builder.add_sg(fsg.sg_id)
        if self.index_builder.is_full:
            members, group_pages = self.index_builder.take_group()
            self.index_pool.write_group(members, group_pages, now_us=now_us)

        self._maybe_cool()

    def _evict_oldest_sg(self, *, now_us: float = 0.0) -> None:
        if not self.pool:
            raise EngineStateError("nothing to evict: the SG pool is empty")
        victim = self.pool.popleft()
        del self._pool_map[victim.sg_id]

        if self.config.enable_writeback:
            self._writeback(victim, now_us=now_us)

        for offset, objs in enumerate(victim.sets):
            for key, size in objs.items():
                remaining = self._flash_copies.get(key, 0) - 1
                if remaining > 0:
                    self._flash_copies[key] = remaining
                else:
                    self._flash_copies.pop(key, None)
                if self._flash_index.get(key) == victim.sg_id:
                    del self._flash_index[key]
                    if self.queue.find(offset, key) is None:
                        self.counters.evicted_objects += 1
                        self.counters.evicted_bytes += size
                self.hotness.discard(key)

        self.sg_region.reclaim(victim.zone_id, now_us=now_us)
        self.index_pool.on_sg_evicted(victim.sg_id)

    def _writeback(self, victim: FlashSG, *, now_us: float = 0.0) -> None:
        """Hotness-aware writeback (§4.2 ③) into the front in-memory SG."""
        front = self.queue.front
        for offset, objs in enumerate(victim.sets):
            hot_items = [
                (key, size)
                for key, size in objs.items()
                if self._flash_index.get(key) == victim.sg_id
                and self.queue.find(offset, key) is None
                and self.hotness.is_hot(key)
            ]
            if not hot_items:
                continue
            self.device.read(victim.page_of(offset), now_us=now_us, background=True)
            self.writeback_reads += 1
            for key, size in hot_items:
                if front.try_insert(offset, key, size, writeback=True):
                    self.writeback_objects += 1
                    self.writeback_bytes += size

    def _maybe_cool(self) -> None:
        capacity = self.pool_capacity_sgs * self.sets_per_sg * self.set_size
        interval = self.config.cooling_interval_fraction * capacity
        if self.stats.host_write_bytes - self._bytes_at_last_cooling >= interval:
            self._bytes_at_last_cooling = self.stats.host_write_bytes
            self.hotness.cool()

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def mean_fill_rate(self) -> float:
        """Mean flushed-SG fill (Fig. 17's headline number)."""
        if not self.fill_rates:
            return float("nan")
        return sum(self.fill_rates) / len(self.fill_rates)

    def mean_new_fill_rate(self) -> float:
        """Mean WA-relevant fill; Nemo's WA ≈ its reciprocal (Eq. 9)."""
        if not self.new_fill_rates:
            return float("nan")
        return sum(self.new_fill_rates) / len(self.new_fill_rates)

    def pbfg_pool_read_ratio(self) -> float:
        """Fraction of PBFG page touches served from flash."""
        if self.pbfg_touches == 0:
            return float("nan")
        return self.pbfg_pool_reads / self.pbfg_touches

    def pbfg_request_pool_ratio(self) -> float:
        """Fraction of index-consulting requests that needed the on-flash
        index pool (the paper's Fig. 19b metric: "<8 % of requests
        access PBFGs from flash" at a 50 % cached ratio)."""
        if self.pbfg_lookups == 0:
            return float("nan")
        return self.pbfg_lookups_from_pool / self.pbfg_lookups

    #: ``metrics_snapshot`` keys the flash-consult side of a lookup
    #: mutates (page reads, FP draws, index-cache admission).  A lane
    #: that defers consults past a sample boundary must not sample these.
    CONSULT_METRICS = frozenset(
        {
            "host_read_bytes",
            "host_read_ops",
            "flash_read_bytes",
            "false_positive_reads",
            "pbfg_pool_read_ratio",
            "index_cache_pages",
        }
    )

    def metrics_snapshot(
        self, keys: Collection[str] | None = None
    ) -> dict[str, float]:
        snap = super().metrics_snapshot(keys)
        snap.update(
            {
                "mean_fill_rate": self.mean_fill_rate(),
                "mean_new_fill_rate": self.mean_new_fill_rate(),
                "pool_sgs": len(self.pool),
                "writeback_objects": self.writeback_objects,
                "early_evicted_objects": self.early_evicted_objects,
                "pbfg_pool_read_ratio": self.pbfg_pool_read_ratio(),
                "false_positive_reads": self.false_positive_reads,
                "index_cache_pages": len(self.index_cache),
            }
        )
        return snap
