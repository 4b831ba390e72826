"""Shared engine logic for the hierarchical caches (Kangaroo, FairyWREN).

Both engines are an :class:`~repro.baselines.hlog.HierarchicalLog` front
tier plus an :class:`~repro.baselines.hset.HierarchicalSet` back tier on
one ZNS device, and differ in one structural switch, ``fairywren`` (§3):

============  =========  ==============  ==========================
engine        fairywren  hot/cold sets   GC discipline
============  =========  ==============  ==========================
Kangaroo      False      no              Case 3.1 — verbatim set
                                         relocation (greedy victims),
                                         WA multiplies
FairyWREN     True       yes             Case 3.2 — GC folded into
                                         log-to-set migration (FIFO
                                         victims)
============  =========  ==============  ==========================

The insert path: admit to HLog; when the log is out of space, reclaim
its oldest zone and flush every bucket that still has objects in that
zone into the back tier (**passive migration**, Case 2).  Back-tier
space pressure triggers the HSet's own GC from inside its write path.

Hotness is a 1-bit-per-object access flag (the "Evict 1 b" row of
Table 6): set on lookup hit, cleared on eviction, consulted by the
back tier's overflow policy.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Collection

from repro.baselines.base import CacheEngine
from repro.baselines.hlog import HierarchicalLog
from repro.baselines.hset import CASE_PASSIVE, HierarchicalSet
from repro.errors import AlignmentError, ConfigError, ReadError
from repro.flash.device import PAGE_PROGRAMMED
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel
from repro.flash.zns import ZNSDevice

#: Table 6 metadata widths (bits per object).
LOG_BITS_PER_OBJECT = 48.0
SET_INDEX_BITS = 3.1   # per-set bloom filters
SET_OTHER_BITS = 3.0   # set bookkeeping
EVICT_BITS = 1.0       # 1-bit access counters
ADDITIONAL_BITS = 0.8  # buffers amortised over the object population

#: Seed of the key → bucket hash the HLog and HSet share.
PLACEMENT_SEED = 17


class HierarchicalCacheBase(CacheEngine):
    """HLog + HSet engine; see the module docstring for the two modes.

    Parameters
    ----------
    geometry:
        Device layout; zones are split between log and set regions.
    log_fraction:
        Fraction of the device's zones given to the HLog (Table 4's
        "Log of cache size", 5 % by default).
    op_ratio:
        The paper's ``X``: fraction of the set region reserved for GC
        headroom; usable sets are ``(1 - X)`` of the region's pages —
        with Kangaroo's verbatim-relocation GC, of the region's pages
        less the one-zone GC reserve.
    fairywren:
        FairyWREN's hot/cold sets and GC-merged migration; False is
        Kangaroo (see :class:`HierarchicalSet`).
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        *,
        log_fraction: float = 0.05,
        op_ratio: float = 0.05,
        fairywren: bool,
        latency: LatencyModel | None = None,
    ) -> None:
        super().__init__()
        if not 0.0 < log_fraction < 1.0:
            raise ConfigError("log_fraction must be in (0, 1)")
        if not 0.0 < op_ratio < 1.0:
            raise ConfigError("op_ratio must be in (0, 1)")
        self.geometry = geometry
        self.log_fraction = log_fraction
        self.op_ratio = op_ratio
        self.device = ZNSDevice(geometry, stats=self.stats, latency=latency)

        num_zones = geometry.num_zones
        log_zone_count = max(1, round(num_zones * log_fraction))
        set_zone_count = num_zones - log_zone_count
        if set_zone_count < 3:
            raise ConfigError(
                f"geometry too small: {set_zone_count} set zones "
                "(need >= 3 for GC headroom)"
            )
        set_region_pages = set_zone_count * geometry.pages_per_zone
        if not fairywren:
            # Kangaroo's verbatim-relocation GC needs one free zone to
            # relocate a victim into (HSet._ensure_headroom's reserve); OP
            # is taken from what is left, so spare pages always exceed a
            # zone.
            set_region_pages -= geometry.pages_per_zone
        usable_sets = int((1.0 - op_ratio) * set_region_pages)
        num_buckets = usable_sets // 2 if fairywren else usable_sets
        if num_buckets <= 0:
            raise ConfigError("op_ratio leaves no usable sets")

        self.hot_keys: set[int] = set()
        self.hlog = HierarchicalLog(
            self.device, list(range(log_zone_count)), num_buckets
        )
        self.hset = HierarchicalSet(
            self.device,
            list(range(log_zone_count, num_zones)),
            num_buckets,
            fairywren=fairywren,
            bucket_drainer=self.hlog.drain_bucket,
            is_hot=self.hot_keys.__contains__,
            on_evict=self._on_evict,
        )
        #: ``hset.passive_hist`` as it stood after the first request
        #: that ran set-region GC (Fig. 4's "Early" phase); None until
        #: GC runs.
        self.early_passive_hist: Counter[int] | None = None

    # ------------------------------------------------------------------
    # CacheEngine API
    # ------------------------------------------------------------------
    def _insert_at(self, key: int, size: int, placement: int, now_us: float) -> None:
        """Admit ``key`` into its already hashed HLog bucket."""
        self.record_admission(size)
        if not self.hlog.insert(key, size, now_us=now_us, bucket=placement):
            self._reclaim_and_insert(key, size, now_us, placement)

    def _reclaim_and_insert(
        self, key: int, size: int, now_us: float, bucket: int
    ) -> None:
        """The log is full: one passive-migration round, then the retry."""
        self._passive_migration_round(now_us=now_us)
        if not self.hlog.insert(key, size, now_us=now_us, bucket=bucket):
            raise ConfigError(
                "HLog cannot absorb the object even after reclaim; "
                "the log region is too small for this object size"
            )

    def delete(self, key: int) -> bool:
        bucket_id = self._placement_of(key)
        removed = self.hlog.remove(key, bucket=bucket_id) is not None
        found = self.hset.find(key, bucket_id)
        if found is not None:
            set_id, _ = found
            if set_id < 0:
                if self.hset.pending_promotions[bucket_id].pop(key, None) is not None:
                    self.hset._object_count -= 1
            else:
                if self.hset.sets[set_id].remove(key) is not None:
                    self.hset._object_count -= 1
            removed = True
        if removed:
            self.hot_keys.discard(key)
            self.counters.deletes += 1
        return removed

    # ------------------------------------------------------------------
    # Bulk GET path (batched replay dispatch)
    # ------------------------------------------------------------------
    # Inlined run loop for the harness's same-op dispatch: the
    # key→bucket hash arrives as a precomputed column (``offsets=``,
    # hashed per chunk by the replay runner; a direct caller that
    # passes none gets one vectorised sweep per run), the HLog bucket
    # dict and HSet mirrors are probed directly, each flash read keeps
    # ``NandArray.read``'s checks inline and, on a timed device, asks
    # the latency model in request order, while the read *counters*
    # accumulate in locals and flush once per run.  Nothing reads the
    # engine counters or device stats mid-run (sampling only happens at
    # chunk boundaries), so the deferred accounting is observationally
    # identical to ``_get_many``.

    def columnar_spec(self) -> tuple[int, int]:
        """Placement column spec: ``hash64(key, seed) % num_buckets``."""
        return (PLACEMENT_SEED, self.hlog.num_buckets)

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
        nb = self.hlog.num_buckets
        fairywren = self.hset.fairywren
        buckets = self.hlog.buckets
        hset = self.hset
        hset_sets = hset.sets
        pending = hset.pending_promotions
        location = hset.location
        hot_add = self.hot_keys.add
        nand = device.nand
        state = nand._state
        num_pages = nand._num_pages
        counters = self.counters
        stats = self.stats
        hits = 0
        read_bytes = 0
        flash_reads = 0
        inserts = 0
        insert_bytes = 0
        for key, size, b in zip(keys, sizes, offsets):
            entry = buckets[b].get(key)
            if entry is not None:
                hits += 1
                hot_add(key)
                read_bytes += entry.size
                page = entry.page
                lat = 0.0
                if page >= 0:  # else still in the write buffer (DRAM)
                    if page >= num_pages:
                        raise AlignmentError(
                            f"page {page} out of range [0, {num_pages})"
                        )
                    if state[page] != PAGE_PROGRAMMED:
                        raise ReadError(f"page {page} is not programmed")
                    flash_reads += 1
                    if latency is not None:
                        lat = latency.read(page, now_us)
                if record is not None:
                    record(lat)
                now_us += step_us
                continue
            # HSet probe (hset.find inlined).
            obj_size = None
            set_id = -1
            if fairywren:
                obj_size = pending[b].get(key)
            if obj_size is None:
                obj_size = hset_sets[b].objects.get(key)
                if obj_size is not None:
                    set_id = b
                elif fairywren:
                    obj_size = hset_sets[nb + b].objects.get(key)
                    if obj_size is not None:
                        set_id = nb + b
            if obj_size is not None:
                hits += 1
                hot_add(key)
                read_bytes += obj_size
                lat = 0.0
                if set_id >= 0:  # else the promotion staging buffer (DRAM)
                    page = location[set_id]
                    if not 0 <= page < num_pages:
                        raise AlignmentError(
                            f"page {page} out of range [0, {num_pages})"
                        )
                    if state[page] != PAGE_PROGRAMMED:
                        raise ReadError(f"page {page} is not programmed")
                    flash_reads += 1
                    if latency is not None:
                        lat = latency.read(page, now_us)
                if record is not None:
                    record(lat)
                now_us += step_us
                continue
            # Miss: read-through admission (``insert`` inlined, bucket
            # reused so the HLog doesn't re-hash the key).
            inserts += 1
            insert_bytes += size
            if not self.hlog.insert(key, size, now_us=now_us, bucket=b):
                self._reclaim_and_insert(key, size, now_us, b)
            if record is not None:
                record(0.0)
            now_us += step_us
        counters.lookups += len(keys)
        counters.hits += hits
        counters.inserts += inserts
        counters.insert_bytes += insert_bytes
        stats.logical_read_bytes += read_bytes
        stats.logical_write_bytes += insert_bytes
        if flash_reads:
            nand.read_count += flash_reads
            stats.record_page_reads(flash_reads, self.geometry.page_size)
        return now_us

    def _lookup_at(
        self, key: int, size: int, placement: int, now_us: float
    ) -> tuple[bool, float]:
        """One GET probe at bucket ``placement`` on any lane: the HLog
        probe, then the HSet probe, both on the one bucket; a flash hit
        reads its page through ``device.read`` (NAND checks and latency
        model kept); counters are bumped per call."""
        counters = self.counters
        counters.lookups += 1
        entry = self.hlog.buckets[placement].get(key)
        if entry is not None:
            counters.hits += 1
            self.hot_keys.add(key)
            self.stats.logical_read_bytes += entry.size
            page = entry.page  # -1: still in the write buffer (DRAM)
            return True, 0.0 if page < 0 else self.device.read(page, now_us=now_us)[1]
        found = self.hset.find(key, placement)
        if found is None:
            return False, 0.0
        set_id, obj_size = found
        counters.hits += 1
        self.hot_keys.add(key)
        self.stats.logical_read_bytes += obj_size
        if set_id < 0:  # the promotion staging buffer (DRAM)
            return True, 0.0
        return True, self.device.read(self.hset.location[set_id], now_us=now_us)[1]

    def object_count(self) -> int:
        """Distinct resident keys.  A key can sit in its HLog bucket and
        in the bucket's cold set, hot set and promotion buffer at once
        (each a hit for ``lookup``), so the tiers' counts are not added."""
        keys: set[int] = set()
        for tier in (self.hlog.buckets, self.hset.pending_promotions):
            for entries in tier:
                keys.update(entries)
        for mirror in self.hset.sets:
            keys.update(mirror.objects)
        return len(keys)

    def memory_overhead_bits_per_object(self) -> float:
        """Table 6 accounting, weighted by the log/set capacity split."""
        set_bits = SET_INDEX_BITS + SET_OTHER_BITS + EVICT_BITS
        return (
            self.log_fraction * LOG_BITS_PER_OBJECT
            + (1.0 - self.log_fraction) * set_bits
            + ADDITIONAL_BITS
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _passive_migration_round(self, *, now_us: float = 0.0) -> None:
        """Reclaim the oldest log zone and flush its buckets (Case 2).

        Every set write, so every set-region GC, starts here, and the
        rest of the request (the HLog retry) never touches
        ``passive_hist``: the end of the first round that ran GC is the
        end of the first request that did.
        """
        buckets = self.hlog.reclaim_oldest_zone(now_us=now_us)
        for b in buckets:
            objs = self.hlog.drain_bucket(b)
            if objs:
                self.hset.install_bucket(b, objs, case=CASE_PASSIVE, now_us=now_us)
        if self.early_passive_hist is None and self.hset.gc_runs:
            self.early_passive_hist = Counter(self.hset.passive_hist)

    def _on_evict(self, key: int, size: int) -> None:
        self.hot_keys.discard(key)
        self.counters.evicted_objects += 1
        self.counters.evicted_bytes += size

    # ------------------------------------------------------------------
    # Instrumentation passthrough (experiments read these)
    # ------------------------------------------------------------------
    @property
    def n_log_pages(self) -> int:
        return self.hlog.capacity_pages

    @property
    def n_set_pages(self) -> int:
        return len(self.hset.zone_ids) * self.geometry.pages_per_zone

    def model(self, object_size: float) -> "HierarchicalModel":
        """§3's analytic model instantiated with this engine's geometry."""
        from repro.analysis.wa_model import HierarchicalModel

        return HierarchicalModel(
            page_size=self.geometry.page_size,
            object_size=object_size,
            n_log_pages=self.n_log_pages,
            n_set_pages=self.n_set_pages,
            op_ratio=self.op_ratio,
            fairywren=self.hset.fairywren,
        )

    @property
    def p_fraction(self) -> float:
        """Fraction of RMW set writes from passive migration (Fig. 6)."""
        return self.hset.p_fraction

    def l2swa(self, case: str | None = None) -> float:
        return self.hset.l2swa(case)

    def metrics_snapshot(
        self, keys: Collection[str] | None = None
    ) -> dict[str, float]:
        snap = super().metrics_snapshot(keys)
        snap.update(
            {
                "p_fraction": self.hset.p_fraction,
                "passive_rmw": self.hset.passive_rmw_count,
                "active_rmw": self.hset.active_rmw_count,
                "set_gc_runs": self.hset.gc_runs,
                "log_objects": self.hlog.object_count(),
                "set_objects": self.hset.object_count(),
            }
        )
        return snap
