"""Hierarchical-cache back tier: the HSet (§2.3, §3).

The HSet holds the bulk of the cache as fixed 4 KiB sets.  Physically the
sets live log-structured in zones of the shared device: every set write
appends a fresh copy of the set's page to the open zone and invalidates
the previous copy (a host-FTL page map).  When the set region runs out
of zones, the oldest zone is reclaimed (FIFO), and its still-current
pages are handled per the paper's two GC disciplines:

- **Kangaroo (Case 3.1)** — valid sets are relocated verbatim; those
  relocation writes are pure garbage-collection write amplification
  (GCWA) that *multiplies* with log-to-set migration WA.
- **FairyWREN (Case 3.2)** — each valid *cold* set is merged with its
  HLog bucket on the way out ("a variant RMW operation: it reads two
  pages … and writes one"), folding GC into migration.  These are the
  paper's **active migrations**, whose short bucket residence time makes
  L2SWA(A) ≈ 2 × L2SWA(P) (§3.2.2).

FairyWREN's hot/cold division is also implemented here: each hash bucket
owns a *cold* set (migration target) and a *hot* partner set.  Objects
with their access bit set that overflow a cold set are staged in a small
in-memory promotion buffer and batch-written to the hot set, so hot-set
writes stay a minor WA term while halving the migration hash range
(Eq. 5's ½·N'_set buckets).

Instrumentation: per-write histograms of newly-installed objects for the
passive and active cases (Figures 4 and 5), passive/active RMW counts
(the paper's ``p``, Figure 6), and GC victim valid-fractions (Kangaroo's
50–80 % observation).
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from collections.abc import Sequence
from typing import Callable

import numpy as np

from repro.errors import (
    ConfigError,
    DeviceError,
    EngineStateError,
    ObjectTooLargeError,
    ReadError,
)
from repro.flash.device import PAGE_PROGRAMMED
from repro.flash.zns import ZNSDevice
from repro.flash.zone import ZoneState

#: Set-write cases, used for instrumentation.
CASE_FIRST = "first"        # set written for the first time (early stage)
CASE_PASSIVE = "passive"    # Case 2: log-full migration (RMW)
CASE_ACTIVE = "active"      # Case 3.2: GC-merged migration (RMW)
CASE_RELOCATE = "relocate"  # Case 3.1: verbatim GC relocation
CASE_PROMOTE = "promote"    # FW hot-set batch promotion


class _SetMirror:
    """DRAM mirror of one set's membership (insertion-ordered)."""

    __slots__ = ("objects", "used_bytes")

    def __init__(self) -> None:
        self.objects: dict[int, int] = {}
        self.used_bytes = 0

    def put(self, key: int, size: int) -> int | None:
        """Insert/refresh ``key``; returns the replaced size (None if new)."""
        old = self.objects.pop(key, None)
        if old is not None:
            self.used_bytes -= old
        self.objects[key] = size
        self.used_bytes += size
        return old

    def pop_oldest(self) -> tuple[int, int]:
        key, size = next(iter(self.objects.items()))
        del self.objects[key]
        self.used_bytes -= size
        return key, size

    def remove(self, key: int) -> int | None:
        size = self.objects.pop(key, None)
        if size is not None:
            self.used_bytes -= size
        return size


class HierarchicalSet:
    """Log-structured set store with FairyWREN's or Kangaroo's GC discipline.

    Parameters
    ----------
    device:
        Shared ZNS device; the set region owns ``zone_ids``.
    num_buckets:
        Migration-target count (= HLog bucket count).
    fairywren:
        FairyWREN mode: each bucket gets a cold set and a hot partner
        set (2 × num_buckets physical sets), and GC merges each valid
        cold set with its HLog bucket (active migration) and reclaims
        zones FIFO.  Kangaroo mode (False): one set per bucket, and
        verbatim relocation from greedy (fewest-valid) victims.
    bucket_drainer:
        ``bucket_id -> list[(key, size)]`` callback into the HLog, used
        by active migration.
    is_hot:
        ``key -> bool`` callback (the engine's 1-bit access counters).
    on_evict:
        ``(key, size) -> None`` callback for objects dropped from the
        cache (miss-ratio accounting and hot-bit cleanup).

    Hot promotions are staged in memory per bucket and flushed to the
    hot set once the batch reaches half a page
    (:attr:`promote_batch_bytes`).
    """

    def __init__(
        self,
        device: ZNSDevice,
        zone_ids: list[int],
        num_buckets: int,
        *,
        fairywren: bool,
        bucket_drainer: Callable[[int], list[tuple[int, int]]],
        is_hot: Callable[[int], bool],
        on_evict: Callable[[int, int], None],
    ) -> None:
        if not zone_ids:
            raise ConfigError("HSet needs at least one zone")
        if num_buckets <= 0:
            raise ConfigError("num_buckets must be positive")
        self.device = device
        self.zone_ids = list(zone_ids)
        self.num_buckets = num_buckets
        self.fairywren = fairywren
        self.bucket_drainer = bucket_drainer
        self.is_hot = is_hot
        self.on_evict = on_evict
        self.page_size = device.geometry.page_size
        self.promote_batch_bytes = self.page_size // 2

        self.num_sets = num_buckets * (2 if fairywren else 1)
        region_pages = len(zone_ids) * device.geometry.pages_per_zone
        if self.num_sets > region_pages:
            raise ConfigError(
                f"{self.num_sets} sets cannot fit the {region_pages}-page region"
            )
        self.sets = [_SetMirror() for _ in range(self.num_sets)]
        #: set id -> current flash page (-1 = no flash copy).  This map
        #: and ``_page_owner`` are ``array('q')``: scalar reads stay
        #: list-fast for the lookup paths, while GC gathers/scatters
        #: whole victims through numpy views built at the point of use
        #: (never stored: a ``deepcopy``/pickle would detach a stored
        #: view from its buffer).
        self.location: array[int] = array("q", [-1]) * self.num_sets
        #: Resident objects (mirrors + promotion staging), maintained
        #: incrementally at every mutation site so the harness's
        #: per-sample ``object_count`` probe never re-scans the sets.
        self._object_count = 0

        #: flash page -> owning set id (-1 = no current copy), flat
        #: array over the whole device so the GC scan is one slice.
        self._page_owner: array[int] = array("q", [-1]) * device.geometry.num_pages
        self._pages_per_zone = device.geometry.pages_per_zone
        self._free_zones: deque[int] = deque(zone_ids)
        self._zone_fifo: deque[int] = deque()
        self._open_zone: int | None = None
        self._in_gc = False
        #: live (current-copy) pages per zone, for greedy victim choice.
        self._zone_valid: array[int] = array("q", [0]) * device.geometry.num_zones

        # FW promotion staging: bucket -> {key: size}.
        self.pending_promotions: list[dict[int, int]] = [
            dict() for _ in range(num_buckets)
        ]

        # Instrumentation.
        self.passive_hist: Counter[int] = Counter()
        self.active_hist: Counter[int] = Counter()
        self.case_writes: Counter[str] = Counter()
        self.case_new_bytes: Counter[str] = Counter()
        self.gc_runs = 0
        self.gc_valid_fractions: list[float] = []
        #: Valid sets GC dropped (evicting their objects) to make
        #: progress: free space short of the relocations, or a fully
        #: valid victim (``_gc_once``'s ``wp - 1`` guard).
        self.gc_dropped_sets = 0

    # ------------------------------------------------------------------
    # Set addressing
    # ------------------------------------------------------------------
    def cold_set_of(self, bucket: int) -> int:
        return bucket

    def hot_set_of(self, bucket: int) -> int:
        if not self.fairywren:
            raise EngineStateError("hot sets only exist in FairyWREN mode")
        return self.num_buckets + bucket

    def find(self, key: int, bucket: int) -> tuple[int, int] | None:
        """Locate ``key``: returns ``(set_id, size)`` or None.

        Checks the promotion staging buffer first (objects there are in
        DRAM, flagged with set_id == -1).
        """
        if self.fairywren:
            size = self.pending_promotions[bucket].get(key)
            if size is not None:
                return (-1, size)
        # cold_set_of / hot_set_of inlined: find runs on every GET
        # that misses the HLog.
        size = self.sets[bucket].objects.get(key)
        if size is not None:
            return (bucket, size)
        if self.fairywren:
            hot = self.num_buckets + bucket
            size = self.sets[hot].objects.get(key)
            if size is not None:
                return (hot, size)
        return None

    def object_count(self) -> int:
        return self._object_count

    def used_bytes(self) -> int:
        n = sum(s.used_bytes for s in self.sets)
        if self.fairywren:
            n += sum(sum(p.values()) for p in self.pending_promotions)
        return n

    # ------------------------------------------------------------------
    # Migration entry points
    # ------------------------------------------------------------------
    def install_bucket(
        self,
        bucket: int,
        objs: list[tuple[int, int]],
        *,
        case: str,
        now_us: float = 0.0,
    ) -> None:
        """Install a drained HLog bucket into its cold set (one write)."""
        if not objs:
            return
        set_id = self.cold_set_of(bucket)
        hist = self.passive_hist if case == CASE_PASSIVE else self.active_hist
        hist[len(objs)] += 1
        self._write_set(set_id, objs, case=case, bucket=bucket, now_us=now_us)
        if self.fairywren:
            self._maybe_flush_promotions(bucket, now_us=now_us)

    # ------------------------------------------------------------------
    # Core set write (RMW + overflow policy)
    # ------------------------------------------------------------------
    def _write_set(
        self,
        set_id: int,
        new_objs: list[tuple[int, int]],
        *,
        case: str,
        bucket: int | None,
        now_us: float = 0.0,
    ) -> None:
        mirror = self.sets[set_id]
        first_write = self.location[set_id] < 0
        if first_write and case in (CASE_PASSIVE, CASE_ACTIVE):
            case_label = CASE_FIRST
        else:
            case_label = case

        # RMW read of the current copy (Case 2's "read-modify-write").
        # Migration is background work (async threads in the paper's
        # implementation), so it must not stall foreground reads.
        if not first_write:
            if self.device.latency is None:
                self.device.read_page(self.location[set_id])
            else:
                self.device.read(
                    self.location[set_id], now_us=now_us, background=True
                )

        new_bytes = 0
        added = 0
        mirror_put = mirror.put
        page_size = self.page_size
        for key, size in new_objs:
            if size > page_size:
                raise ObjectTooLargeError(
                    f"object of {size} B exceeds the {page_size} B set"
                )
            new_bytes += size
            if mirror_put(key, size) is None:
                added += 1
        self._object_count += added

        self._shrink_to_fit(set_id, bucket)
        self._append_set_page(set_id, now_us=now_us)

        self.case_writes[case_label] += 1
        self.case_new_bytes[case_label] += new_bytes

    def _shrink_to_fit(self, set_id: int, bucket: int | None) -> None:
        """Evict (or stage for promotion) until the set fits its page."""
        mirror = self.sets[set_id]
        is_cold = self.fairywren and set_id < self.num_buckets
        while mirror.used_bytes > self.page_size:
            key, size = mirror.pop_oldest()
            self._object_count -= 1
            if is_cold and bucket is not None and self.is_hot(key):
                pending = self.pending_promotions[bucket]
                if key not in pending:
                    self._object_count += 1
                pending[key] = size
            else:
                self.on_evict(key, size)

    def _relocate_set(self, set_id: int, *, now_us: float = 0.0) -> None:
        """Verbatim GC relocation (Case 3.1) — ``_write_set`` fast path.

        The mirror is unchanged by a relocation (no new objects, no
        overflow possible: the set already fit its page), so the general
        path's merge/shrink machinery is skipped; the RMW read, the
        appended page and the case accounting are identical.
        """
        if self.device.latency is None:
            self.device.read_page(self.location[set_id])
        else:
            self.device.read(
                self.location[set_id], now_us=now_us, background=True
            )
        self._append_set_page(set_id, now_us=now_us)
        self.case_writes[CASE_RELOCATE] += 1

    def _relocate_batch(self, set_ids: Sequence[int] | np.ndarray) -> None:
        """Bulk latency-free relocation: ``_relocate_set`` over ``set_ids``.

        Kangaroo GC relocates hundreds of sets per victim and those
        relocations dominate replay time, so each zone-sequential run is
        one gather of the source pages, one slice of target pages and
        one scatter into the placement maps, with ``_relocate_set``'s
        validations expressed on the slice (every source page
        programmed, every target page erased) and the (identical) stat
        deltas applied once per batch.  ``set_ids`` must be distinct
        sets with a flash copy — what a victim scan yields.  Nothing
        observes device stats mid-GC — the whole batch runs inside one
        engine ``insert`` — so the deferred accounting is
        indistinguishable from the per-set path.
        """
        device = self.device
        nand = device.nand
        zones = device.zones
        ppz = self._pages_per_zone
        payload = nand._payload
        sets = self.sets
        state = np.frombuffer(nand._state, dtype=np.uint8)
        owner = np.frombuffer(self._page_owner, dtype=np.int64)
        location = np.frombuffer(self.location, dtype=np.int64)
        zone_valid = np.frombuffer(self._zone_valid, dtype=np.int64)
        ids = np.asarray(set_ids, dtype=np.int64)
        total = len(ids)
        i = 0
        while i < total:
            zone_id = self._writable_zone()
            zone = zones[zone_id]
            wp = zone.write_pointer
            cap = zone.capacity_pages
            take = min(total - i, cap - wp)
            base = zone_id * ppz + wp
            stop = base + take
            run = ids[i : i + take]
            old_pages = location[run]
            # RMW reads (accounting-only; the mirror is authoritative).
            # A state byte is 0 (erased) or 1 (programmed), so all() /
            # any() are the per-page tests taken over the slice.
            source = state[old_pages]
            if old_pages.min() < 0 or not source.all():
                unreadable = (old_pages < 0) | (source != PAGE_PROGRAMMED)
                page = int(old_pages[unreadable.argmax()])
                raise ReadError(f"page {page} is not programmed")
            target = state[base:stop]
            if target.any():
                page = base + int(target.argmax())
                raise DeviceError(
                    f"page {page} already programmed; erase its block first"
                )
            target[:] = PAGE_PROGRAMMED
            payload[base:stop] = [sets[set_id].objects for set_id in run.tolist()]
            owner[old_pages] = -1
            zone_valid -= np.bincount(old_pages // ppz, minlength=len(zone_valid))
            owner[base:stop] = run
            location[run] = np.arange(base, stop)
            zone.write_pointer = wp + take
            if wp + take == cap:
                zone.state = ZoneState.FULL
                self._open_zone = None
            else:
                zone.state = ZoneState.OPEN
            zone_valid[zone_id] += take
            i += take
        nand.read_count += total
        nand.program_count += total
        stats = device.stats
        nbytes = device.geometry.page_size * total
        stats.record_page_reads(total, device.geometry.page_size)
        stats.host_write_bytes += nbytes
        stats.host_write_ops += total
        stats.flash_write_bytes += nbytes
        self.case_writes[CASE_RELOCATE] += total

    def _maybe_flush_promotions(self, bucket: int, *, now_us: float = 0.0) -> None:
        pending = self.pending_promotions[bucket]
        if sum(pending.values()) < self.promote_batch_bytes:
            return
        objs = list(pending.items())
        self._object_count -= len(objs)
        pending.clear()
        self._write_set(
            self.hot_set_of(bucket),
            objs,
            case=CASE_PROMOTE,
            bucket=None,
            now_us=now_us,
        )

    # ------------------------------------------------------------------
    # Physical placement + GC
    # ------------------------------------------------------------------
    def _append_set_page(self, set_id: int, *, now_us: float = 0.0) -> None:
        if not self._in_gc:
            self._ensure_headroom(now_us=now_us)
        zone_id = self._writable_zone()
        old_page = self.location[set_id]
        zone_valid = self._zone_valid
        if old_page >= 0:
            self._page_owner[old_page] = -1
            zone_valid[old_page // self._pages_per_zone] -= 1
        # The flash page carries the live mirror dict itself (not a
        # copy): the DRAM mirror stays authoritative — RMW reads are
        # accounting-only — so snapshotting per write would be pure
        # copy churn.
        device = self.device
        objs = self.sets[set_id].objects
        if device.latency is None:
            page = device.append_page(zone_id, objs)
        else:
            page, _ = device.append(zone_id, objs, now_us=now_us)
        self.location[set_id] = page
        self._page_owner[page] = set_id
        zone_valid[zone_id] += 1
        if device.zones[zone_id].state is ZoneState.FULL:
            self._open_zone = None

    def _writable_zone(self) -> int:
        if self._open_zone is not None:
            return self._open_zone
        if not self._free_zones:
            raise EngineStateError("set region out of space (GC starved)")
        zone_id = self._free_zones.popleft()
        self._open_zone = zone_id
        self._zone_fifo.append(zone_id)
        return zone_id

    def _free_pages(self) -> int:
        pages = len(self._free_zones) * self.device.geometry.pages_per_zone
        if self._open_zone is not None:
            pages += self.device.zones[self._open_zone].remaining_pages
        return pages

    def _ensure_headroom(self, *, now_us: float = 0.0) -> None:
        """Run GC until more than one zone of headroom is free.

        GC itself consumes headroom by relocating valid pages, so the
        trigger keeps a one-zone reserve (collect while every free page
        lives in the reserve), and :meth:`_gc_once` guarantees a net
        gain of at least one page per run, so this loop terminates.
        The reserve is not over-provisioning: with verbatim relocation
        a region whose spare pages do not exceed it leaves every victim
        (nearly) fully valid, so the engine sizes its sets from the
        region minus one zone (``HierarchicalCacheBase``).
        """
        ppz = self.device.geometry.pages_per_zone
        while self._free_pages() <= ppz:
            if not self._zone_fifo or (
                len(self._zone_fifo) == 1 and self._zone_fifo[0] == self._open_zone
            ):
                if self._free_pages() >= 1:
                    return
                raise EngineStateError("set region exhausted with nothing to GC")
            self._gc_once(now_us=now_us)

    def _pick_victim(self) -> int:
        """Choose the zone to reclaim.

        In FairyWREN mode the oldest written zone: its
        merged GC turns old cold sets into useful active migrations.
        Without (Kangaroo) the zone with the fewest live pages: pure
        relocation cost, so minimise valid data — the standard
        device-GC policy, and what keeps the paper's observed victim
        validity in the 50–80 % band instead of degenerating into
        cold-data accumulation.
        """
        candidates = [z for z in self._zone_fifo if z != self._open_zone]
        if not candidates:
            raise EngineStateError("no GC victim available")
        if self.fairywren:
            return candidates[0]
        return min(candidates, key=lambda z: self._zone_valid[z])

    def _gc_once(self, *, now_us: float = 0.0) -> None:
        victim = self._pick_victim()
        self._zone_fifo.remove(victim)
        first = self.device.geometry.zone_first_page(victim)
        wp = self.device.zones[victim].write_pointer
        # Victim scan: the sets whose current copy sits in the victim's
        # written range, in page order.
        owner = np.frombuffer(self._page_owner, dtype=np.int64)
        location = np.frombuffer(self.location, dtype=np.int64)
        owned = owner[first : first + wp]
        offsets = (owned >= 0).nonzero()[0]
        set_ids = owned[offsets]
        valid_sets = set_ids[location[set_ids] == offsets + first]
        self.gc_runs += 1
        self.gc_valid_fractions.append(len(valid_sets) / wp if wp else 0.0)

        # Guarantee forward progress: relocations must fit the free
        # space, and when the victim is fully valid at least one set is
        # dropped so the zone reclaim nets a page.  (The paper notes
        # dropping valid sets is possible but costly; we only do it to
        # avoid GC livelock, which real deployments avoid via OP.)
        budget = self._free_pages()
        max_relocate = min(len(valid_sets), budget)
        if len(valid_sets) >= wp:
            max_relocate = min(max_relocate, wp - 1)

        self._in_gc = True
        try:
            self._gc_install(valid_sets, max_relocate, now_us=now_us)
        finally:
            self._in_gc = False
        owner[first : first + wp] = -1
        self.device.reset_zone(victim, now_us=now_us)
        self._free_zones.append(victim)
        if self._zone_valid[victim] != 0:
            raise EngineStateError(
                f"zone {victim} reclaimed with {self._zone_valid[victim]} "
                "valid pages unaccounted"
            )

    def _gc_install(
        self, valid_sets: np.ndarray, max_relocate: int, *, now_us: float = 0.0
    ) -> None:
        if not self.fairywren:
            # Kangaroo mode: every kept set relocates verbatim, in one
            # batch unless a latency model must time each relocation.
            if max_relocate and self.device.latency is None:
                self._relocate_batch(valid_sets[:max_relocate])
            else:
                for set_id in valid_sets[:max_relocate].tolist():
                    self._relocate_set(set_id, now_us=now_us)
            for set_id in valid_sets[max_relocate:].tolist():
                self._drop_set(set_id)
            return
        for idx, set_id in enumerate(valid_sets.tolist()):
            if idx >= max_relocate:
                self._drop_set(set_id)
                continue
            if set_id < self.num_buckets:
                # Active migration (Case 3.2): merge the bucket in.
                bucket = set_id
                objs = self.bucket_drainer(bucket)
                self.active_hist[len(objs)] += 1
                self._write_set(
                    set_id, objs, case=CASE_ACTIVE, bucket=bucket, now_us=now_us
                )
            else:
                # Verbatim relocation (FW hot sets).
                self._relocate_set(set_id, now_us=now_us)

    def _drop_set(self, set_id: int) -> None:
        self.gc_dropped_sets += 1
        mirror = self.sets[set_id]
        for key, size in list(mirror.objects.items()):
            self.on_evict(key, size)
        self._object_count -= len(mirror.objects)
        mirror.objects.clear()
        mirror.used_bytes = 0
        old = self.location[set_id]
        if old >= 0:
            self._page_owner[old] = -1
            self._zone_valid[old // self._pages_per_zone] -= 1
        self.location[set_id] = -1

    # ------------------------------------------------------------------
    # Run-time audit
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Audit internal consistency; raises :class:`EngineStateError`.

        Recomputes every incrementally-maintained quantity (the two
        placement maps against each other, per-zone valid counts, the
        resident-object count, the zone bookkeeping) from the raw state,
        so a stale counter or a half-applied scatter cannot hide behind
        its own cache.
        """
        location = self.location
        owner = self._page_owner
        state = self.device.nand._state
        ppz = self._pages_per_zone
        valid = array("q", [0]) * len(self._zone_valid)
        for page, set_id in enumerate(owner):
            if set_id < 0:
                continue
            if set_id >= self.num_sets or location[set_id] != page:
                raise EngineStateError(
                    f"page {page} is owned by set {set_id}, which is not there"
                )
            if state[page] != PAGE_PROGRAMMED:
                raise EngineStateError(f"owned page {page} is not programmed")
            valid[page // ppz] += 1
        for set_id, page in enumerate(location):
            if page >= 0 and owner[page] != set_id:
                raise EngineStateError(
                    f"set {set_id} sits at page {page}, owned by set {owner[page]}"
                )
        if valid != self._zone_valid:
            raise EngineStateError(
                f"stale per-zone valid counts "
                f"({self._zone_valid.tolist()} != {valid.tolist()})"
            )
        objects = sum(len(mirror.objects) for mirror in self.sets) + sum(
            len(pending) for pending in self.pending_promotions
        )
        if objects != self._object_count:
            raise EngineStateError(
                f"stale object count ({self._object_count} != {objects})"
            )
        # Every zone is free or written (the open zone is the youngest
        # written one), never both, never neither.
        zones = [*self._free_zones, *self._zone_fifo]
        if sorted(zones) != sorted(self.zone_ids):
            raise EngineStateError(
                f"free {list(self._free_zones)} + written "
                f"{list(self._zone_fifo)} zones do not partition {self.zone_ids}"
            )
        if self._open_zone is not None and self._open_zone not in self._zone_fifo:
            raise EngineStateError(
                f"open zone {self._open_zone} missing from the written-zone FIFO"
            )

    # ------------------------------------------------------------------
    # Instrumentation helpers
    # ------------------------------------------------------------------
    @property
    def passive_rmw_count(self) -> int:
        return self.case_writes[CASE_PASSIVE]

    @property
    def active_rmw_count(self) -> int:
        return self.case_writes[CASE_ACTIVE]

    @property
    def p_fraction(self) -> float:
        """The paper's ``p``: fraction of RMWs from passive migration."""
        total = self.passive_rmw_count + self.active_rmw_count
        if total == 0:
            return float("nan")
        return self.passive_rmw_count / total

    def l2swa(self, case: str | None = None) -> float:
        """Measured log-to-set WA: page bytes written / new object bytes.

        ``case=None`` aggregates passive + active (+ first writes).
        """
        if case is None:
            cases = [CASE_FIRST, CASE_PASSIVE, CASE_ACTIVE]
        else:
            cases = [case]
        writes = sum(self.case_writes[c] for c in cases)
        new_bytes = sum(self.case_new_bytes[c] for c in cases)
        if new_bytes == 0:
            return float("nan")
        return writes * self.page_size / new_bytes
