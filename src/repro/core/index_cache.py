"""On-flash index pool and the FIFO in-memory index cache (§4.3).

Nemo persists the whole PBFG index to flash (the **index pool**) and
keeps only hot pages in DRAM (the **index cache**).  The paper's design
points, reproduced here:

- the cache is FIFO, "which reduces lock contention under high access
  pressure compared to LRU" (§5.1) — structurally a FIFO here, too;
- a lookup touches one index page per live index group (the PBFGs are
  queried in parallel), so the cache's unit is the flash page;
- with 50 % of pages cached, fewer than 8 % of requests should need a
  page from flash (Fig. 19b) — Zipf skew concentrates lookups on few
  offsets, hence few pages.

The pool writes index groups to the zones of its own
:class:`~repro.flash.region.ZoneRegion`; the oldest zone is reclaimed
once every group stored in it is dead (all member SGs evicted from the
SG pool), which the matching FIFO order of SGs and groups guarantees.
"""

from __future__ import annotations

from array import array
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.core.pbfg import IndexLayout
from repro.errors import ConfigError, EngineStateError
from repro.flash.region import ZoneRegion
from repro.flash.zns import ZNSDevice

#: Cache/pool page key: (group_id, page_index_within_group).
PageKey = tuple[int, int]


class IndexCache:
    """FIFO cache of index pages.

    ``access`` returns True on a hit; on a miss the caller performs the
    flash read and the page is admitted, evicting the oldest entry when
    at capacity (plain FIFO — re-access does not refresh position).
    """

    def __init__(
        self, capacity_pages: int, *, num_page_indices: int | None = None
    ) -> None:
        if capacity_pages < 0:
            raise ConfigError("capacity_pages must be non-negative")
        self.capacity = capacity_pages
        self._fifo: OrderedDict[PageKey, None] = OrderedDict()
        #: page-index occupancy, for the hotness tracker's
        #: "is this offset's PBFG cached?" test (Fig. 11).  When the
        #: page-index range is known up front (the engine passes
        #: ``layout.pages_per_group``) the counters live in a flat
        #: ``array('q')`` keyed by page index — no hashing, no
        #: missing-key bookkeeping; otherwise a Counter fallback.
        self._page_idx_counts: array[int] | Counter[int]
        if num_page_indices is not None:
            self._flat_counts = True
            self._page_idx_counts = array("q", bytes(8 * num_page_indices))
        else:
            self._flat_counts = False
            self._page_idx_counts = Counter()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._fifo)

    def __contains__(self, page: PageKey) -> bool:
        return page in self._fifo

    def access(self, page: PageKey) -> bool:
        """Touch ``page``; True = hit, False = miss (now admitted)."""
        if page in self._fifo:
            self.hits += 1
            return True
        self.misses += 1
        if self.capacity == 0:
            return False
        while len(self._fifo) >= self.capacity:
            old, _ = self._fifo.popitem(last=False)
            self._dec(old[1])
        self._fifo[page] = None
        self._page_idx_counts[page[1]] += 1
        return False

    def resident(self, page_idx: int, n_live: int) -> bool:
        """O(1) all-resident test for one consult's pages.

        A consult touches page ``page_idx`` of each of the ``n_live``
        live index groups.  Only live groups' pages are ever admitted
        and :meth:`drop_group` removes a group's pages when it dies, so
        the occupancy count at ``page_idx`` equals ``n_live`` exactly
        when every one of them is cached.  The steady-state common case
        — all resident — mutates nothing (plain FIFO: re-access does not
        refresh position); the caller settles it with one
        ``hits += n_live`` bump.  Any miss goes through :meth:`access`
        page by page: FIFO admission is order-dependent.
        """
        return self._page_idx_counts[page_idx] == n_live

    def _dec(self, page_idx: int) -> None:
        counts = self._page_idx_counts
        counts[page_idx] -= 1
        if isinstance(counts, Counter) and counts[page_idx] <= 0:
            del counts[page_idx]

    def drop_group(self, group_id: int) -> None:
        """Remove a dead group's pages (its SGs were all evicted)."""
        stale = [p for p in self._fifo if p[0] == group_id]
        for p in stale:
            del self._fifo[p]
            self._dec(p[1])

    def page_idx_cached(self, page_idx: int) -> bool:
        """True when any cached page covers group-page ``page_idx``."""
        counts = self._page_idx_counts
        if isinstance(counts, Counter):
            return counts.get(page_idx, 0) > 0
        return counts[page_idx] > 0

    @property
    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return float("nan")
        return self.misses / total


@dataclass
class _Group:
    """One on-flash index group."""

    group_id: int
    member_sgs: set[int]
    pages: list[int]  # physical flash pages, indexed by page_idx
    zone_id: int
    live_members: int = field(init=False)

    def __post_init__(self) -> None:
        self.live_members = len(self.member_sgs)


class IndexPool:
    """The on-flash index pool: group placement, retrieval, reclamation."""

    def __init__(
        self,
        device: ZNSDevice,
        zone_ids: list[int],
        layout: IndexLayout,
    ) -> None:
        if not zone_ids:
            raise ConfigError("index pool needs at least one zone")
        ppz = device.geometry.pages_per_zone
        if layout.pages_per_group > ppz:
            raise ConfigError(
                f"an index group ({layout.pages_per_group} pages) must fit "
                f"one zone ({ppz} pages)"
            )
        self.device = device
        self.layout = layout
        self.region = ZoneRegion(device, zone_ids)
        self._zone_groups: dict[int, list[int]] = {}
        self.groups: OrderedDict[int, _Group] = OrderedDict()
        self._sg_to_group: dict[int, int] = {}
        self._next_group_id = 0
        #: Hook set by the engine: called with a dead group id so the
        #: index cache can drop its pages.
        self.on_group_dead: Callable[[int], None] | None = None
        # pages_for_offset is on the per-lookup hot path but the live
        # group set only changes on group writes/deaths: cache per
        # offset, invalidated by a generation counter.
        self._generation = 0
        #: Groups with ``live_members > 0``, maintained incrementally
        #: (``check_invariants`` recounts it from the groups).
        self._live_groups = 0
        self._offset_cache: dict[int, tuple[int, list[tuple[PageKey, int]]]] = {}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def write_group(
        self, member_sgs: list[int], page_payloads: list[object], *, now_us: float = 0.0
    ) -> int:
        """Persist one index group; returns its group id.

        The group's pages are appended contiguously so each PBFG read
        stays a single-page access.
        """
        if len(page_payloads) != self.layout.pages_per_group:
            raise ConfigError(
                f"expected {self.layout.pages_per_group} pages, "
                f"got {len(page_payloads)}"
            )
        zone_id = self.region.zone_with_room(len(page_payloads))
        if zone_id is None:
            self._reclaim_oldest_zone(now_us=now_us)
            zone_id = self.region.zone_with_room(len(page_payloads))
            assert zone_id is not None  # the reclaimed zone is free
        pages, _ = self.device.append_many(zone_id, page_payloads, now_us=now_us)
        gid = self._next_group_id
        self._next_group_id += 1
        group = _Group(gid, set(member_sgs), pages, zone_id)
        self.groups[gid] = group
        self._zone_groups.setdefault(zone_id, []).append(gid)
        for sg in member_sgs:
            self._sg_to_group[sg] = gid
        if group.live_members > 0:
            self._live_groups += 1
        self._generation += 1
        return gid

    def _reclaim_oldest_zone(self, *, now_us: float = 0.0) -> None:
        # Only called with no zone free, so every zone is written.
        victim = self.region.written[0]
        gids = self._zone_groups.get(victim, [])
        alive = [g for g in gids if self.groups[g].live_members > 0]
        if alive:
            raise EngineStateError(
                "index pool sized too small: oldest index zone still has "
                f"{len(alive)} live group(s); give the pool more zones"
            )
        # Every popped group is dead: the live count does not move.
        for g in gids:
            self.groups.pop(g, None)
        self._zone_groups.pop(victim, None)
        self.region.reclaim(victim, now_us=now_us)

    # ------------------------------------------------------------------
    # Retrieval / liveness
    # ------------------------------------------------------------------
    def pages_for_offset(self, offset: int) -> list[tuple[PageKey, int]]:
        """Index pages a lookup at ``offset`` must consult.

        One page per live group: ``((group_id, page_idx), physical_page)``.
        """
        cached = self._offset_cache.get(offset)
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        page_idx = self.layout.page_of_offset(offset)
        entries = [
            ((g.group_id, page_idx), g.pages[page_idx])
            for g in self.groups.values()
            if g.live_members > 0
        ]
        self._offset_cache[offset] = (self._generation, entries)
        return entries

    def group_of_sg(self, sg_id: int) -> int | None:
        return self._sg_to_group.get(sg_id)

    def on_sg_evicted(self, sg_id: int) -> None:
        gid = self._sg_to_group.pop(sg_id, None)
        if gid is None:
            return
        group = self.groups.get(gid)
        if group is None:
            return
        group.live_members -= 1
        if group.live_members <= 0:
            self._live_groups -= 1
            self._generation += 1
            if self.on_group_dead is not None:
                self.on_group_dead(gid)

    def live_group_count(self) -> int:
        return self._live_groups

    def _scan_live_groups(self) -> int:
        return sum(1 for g in self.groups.values() if g.live_members > 0)

    def check_invariants(self) -> None:
        """Audit the region and the incrementally-maintained live-group
        count against a scan of the groups; raises :class:`EngineStateError`."""
        self.region.check_invariants()
        live = self._scan_live_groups()
        if self._live_groups != live:
            raise EngineStateError(
                f"stale live-group count ({self._live_groups} != {live})"
            )
