"""Log-structured flash cache (the paper's "Log" baseline).

Objects are buffered in memory into 4 KiB pages and appended to a flash
log zone by zone; eviction is FIFO at zone granularity (the oldest zone
is reset wholesale).  This is the low-WA extreme of Table 1: ALWA comes
only from page-packing slack and per-object on-flash headers (the paper
measures 1.08), and on ZNS the DLWA is 1.

Its cost is the exact in-memory index (§2.3): per object a flash offset
(~29 bits), a tag (~29 bits), and a chain pointer (64 bits) — >100 bits
per object, ~10 % of a tiny object's size.  The index here is a Python
dict; the reported memory overhead uses the paper's per-entry field
widths, not Python's allocator.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from itertools import repeat

from repro.baselines.base import CacheEngine
from repro.errors import AlignmentError, ConfigError, ObjectTooLargeError, ReadError
from repro.flash.device import PAGE_PROGRAMMED
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel
from repro.flash.zns import ZNSDevice

#: Paper §2.3 index entry: flash offset (29 b) + tag (29 b) + next pointer
#: (64 b); hotness is optional and omitted here.
INDEX_BITS_PER_OBJECT = 29 + 29 + 64


class LogStructuredCache(CacheEngine):
    """Append-only flash cache with an exact DRAM index.

    Parameters
    ----------
    geometry:
        Flash layout; the whole device is the log.
    object_header_bytes:
        Per-object on-flash header (key, length, checksum).  Real
        log caches store ~12–24 B; this is the main source of the
        measured 1.08 ALWA beyond packing slack.
    latency:
        Optional latency model shared with the harness.
    """

    name = "Log"

    def __init__(
        self,
        geometry: FlashGeometry,
        *,
        object_header_bytes: int = 16,
        latency: LatencyModel | None = None,
    ) -> None:
        super().__init__()
        if object_header_bytes < 0:
            raise ConfigError("object_header_bytes must be non-negative")
        self.geometry = geometry
        self.object_header_bytes = object_header_bytes
        self.device = ZNSDevice(geometry, stats=self.stats, latency=latency)

        # Exact index: key -> (physical page | -1 for "in write buffer", size).
        self._index: dict[int, tuple[int, int]] = {}
        # Open page buffer: list of (key, size), plus its byte fill.
        self._buffer: list[tuple[int, int]] = []
        self._buffer_bytes = 0
        # FIFO of zones holding live data (oldest first).
        self._zone_fifo: deque[int] = deque()
        self._open_zone: int | None = None
        # Keys per zone, for wholesale invalidation on zone reset.
        self._zone_keys: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # CacheEngine API
    # ------------------------------------------------------------------
    # No placement hash: ``placement`` is the key itself, and unused.
    def _lookup_at(
        self, key: int, size: int, placement: int, now_us: float
    ) -> tuple[bool, float]:
        counters = self.counters
        counters.lookups += 1
        entry = self._index.get(key)
        if entry is None:
            return False, 0.0
        page, obj_size = entry
        counters.hits += 1
        self.stats.logical_read_bytes += obj_size
        if page < 0:  # still in the write buffer
            return True, 0.0
        return True, self.device.read(page, now_us=now_us)[1]

    def _insert_at(self, key: int, size: int, placement: int, now_us: float) -> None:
        page_size = self.geometry.page_size
        stored = size + self.object_header_bytes
        if stored > page_size:
            raise ObjectTooLargeError(
                f"object of {size} B (+{self.object_header_bytes} B header) "
                f"exceeds the {page_size} B page"
            )
        # Update: drop any stale copy from the index; the old flash
        # bytes die in place and vanish when their zone is reset.
        index = self._index
        index.pop(key, None)
        self.record_admission(size)
        if self._buffer_bytes + stored > page_size:
            self._flush_buffer(now_us=now_us)
        self._buffer.append((key, size))
        self._buffer_bytes += stored
        index[key] = (-1, size)

    def delete(self, key: int) -> bool:
        # Stale references may linger in _zone_keys / _buffer; they are
        # filtered against the index when the zone dies or flushes.
        if self._index.pop(key, None) is None:
            return False
        self.counters.deletes += 1
        return True

    # ------------------------------------------------------------------
    # Bulk GET path (batched replay dispatch)
    # ------------------------------------------------------------------
    # Inlined run loop with the index dict and counters bound to
    # locals; request/stat counters accumulate per run and flush once
    # (nothing samples them mid-run — see ``baselines/base.py`` for the
    # bulk contract).  Each flash read keeps ``NandArray.read``'s checks
    # and, on a timed device, asks the latency model in request order.
    # Semantics are identical to ``_get_many``.

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
        device = self.device
        latency = device.latency
        index_get = self._index.get
        insert_at = self._insert_at
        nand = device.nand
        state = nand._state
        num_pages = nand._num_pages
        hits = 0
        read_bytes = 0
        flash_reads = 0
        for key, size in zip(keys, sizes):
            entry = index_get(key)
            if entry is None:
                # No placement hash: the key is the placement.
                insert_at(key, size, key, now_us)
                if record is not None:
                    record(0.0)
                now_us += step_us
                continue
            page, obj_size = entry
            hits += 1
            read_bytes += obj_size
            lat = 0.0
            if page >= 0:  # else still in the write buffer
                if page >= num_pages:
                    raise AlignmentError(f"page {page} out of range [0, {num_pages})")
                if state[page] != PAGE_PROGRAMMED:
                    raise ReadError(f"page {page} is not programmed")
                flash_reads += 1
                if latency is not None:
                    lat = latency.read(page, now_us)
            if record is not None:
                record(lat)
            now_us += step_us
        counters = self.counters
        counters.lookups += len(keys)
        counters.hits += hits
        self.stats.logical_read_bytes += read_bytes
        if flash_reads:
            nand.read_count += flash_reads
            self.stats.record_page_reads(flash_reads, self.geometry.page_size)
        return now_us

    def insert_column(
        self,
        keys: list[int],
        sizes: list[int],
        cuts: list[int],
        pages: list[int],
        now_us: float = 0.0,
    ) -> None:
        """Columnar insert run: apply a pre-classified insert sequence.

        The columnar kernel (``harness/columnar.py``) has already solved
        the data-dependent parts of :meth:`insert_many` as whole-trace
        array programs, so this path skips every per-request decision:

        - ``cuts``: ascending run-relative positions whose insert flushes
          the page buffer first (the exact ``_buffer_bytes`` recurrence,
          solved ahead of time) — events between two cuts form one page
          and are applied with bulk dict operations.
        - ``pages``: per-event final placement — the device page each
          object occupies once every flush in this run has happened, or
          ``-1`` if it is still buffered at run end.  Valid because a
          non-wrapped device writes pages strictly sequentially, so the
          kernel predicts page ids from flush ordinals.

        With placements known ahead of time, the whole run's index
        writes collapse to **one** bulk ``dict.update`` (the last copy
        of a key wins, exactly like per-event assignment), and each
        flush is bulk dict construction.  Intermediate index states are
        unobservable: nothing reads the index during a run except a
        leftover-buffer flush (handled first, exactly) and eviction
        scans, which the caller excludes.

        Preconditions (the kernel guarantees them): no object exceeds
        the page, the run contains no deletes, the device has no
        latency model, and no flush in the run can recycle a zone
        (runs at or past the device wrap point take
        :meth:`insert_many`).  State after the run is identical to
        :meth:`insert_many` except for ``_index`` key order, which
        nothing observes.
        """
        index = self._index
        device = self.device
        n_run = len(keys)

        total = sum(sizes)
        counters = self.counters
        counters.inserts += n_run
        counters.insert_bytes += total
        self.stats.logical_write_bytes += total

        pos = 0
        ci = 0
        if cuts and self._buffer:
            # Leftover buffer from before the run (possibly holding
            # deleted-while-buffered keys): the first flush must take
            # the exact scalar path, which filters the buffer against
            # the index.  The event *at* the cut triggers the flush, and
            # its insert drops a superseded buffered copy from the index
            # before the buffer is written — so that copy must not reach
            # the page.
            cut = cuts[0]
            seg_keys = keys[:cut]
            seg_sizes = sizes[:cut]
            index.update(zip(seg_keys, zip(repeat(-1), seg_sizes)))
            self._buffer.extend(zip(seg_keys, seg_sizes))
            trig_key = keys[cut]
            trig_old = index.get(trig_key)
            if trig_old is not None and trig_old[0] < 0:
                del index[trig_key]
            self._flush_buffer(now_us=now_us)
            pos = cut
            ci = 1
        # Whole-run final placements in one bulk write.  Re-binding the
        # just-flushed first segment is idempotent (its predicted pages
        # equal the page the scalar flush assigned), and entries that
        # point at pages later flushes create are not read before those
        # flushes run.
        index.update(zip(keys, zip(pages, sizes)))
        zone_id = self._open_zone
        zones = device.zones
        append_page = device.append_page
        zone_keys_map = self._zone_keys
        zone_left = zones[zone_id].remaining_pages if zone_id is not None else 0
        zone_keys = zone_keys_map[zone_id] if zone_id is not None else []
        for cut in cuts[ci:]:
            if zone_id is None:
                zone_id = self._writable_zone(now_us=now_us)
                zone_left = zones[zone_id].remaining_pages
                zone_keys = zone_keys_map[zone_id]
            # Fast flush: the buffer is exactly this segment and every
            # buffered key except a superseded trigger copy is live.  A
            # buffered trigger copy can only come from this segment (the
            # buffer was empty when it started), so the index never saw
            # it.
            seg_keys = keys[pos:cut]
            trig_key = keys[cut]
            if trig_key in seg_keys:
                seg_keys = [k for k in seg_keys if k != trig_key]
            append_page(zone_id, None)
            zone_keys.extend(seg_keys)
            zone_left -= 1
            if not zone_left:
                zone_id = self._open_zone = None
            pos = cut
        if pos < n_run:
            # Trailing partial page: stays in the write buffer (its
            # index entries are the ``-1`` placements written above).
            tail_keys = keys[pos:]
            tail_sizes = sizes[pos:]
            self._buffer.extend(zip(tail_keys, tail_sizes))
            self._buffer_bytes += (
                sum(tail_sizes) + self.object_header_bytes * len(tail_keys)
            )

    def object_count(self) -> int:
        return len(self._index)

    def memory_overhead_bits_per_object(self) -> float:
        """Paper §2.3 accounting: >100 bits per object of exact index."""
        return float(INDEX_BITS_PER_OBJECT)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _flush_buffer(self, *, now_us: float = 0.0) -> None:
        if not self._buffer:
            return
        zone_id = self._writable_zone(now_us=now_us)
        index = self._index
        # Only the DRAM index is ever read back, so the page carries no
        # payload.  A superseded buffered copy is overwritten by its
        # newer one (the buffer preserves insertion order).
        page, _ = self.device.append(zone_id, None, now_us=now_us)
        zone_keys = self._zone_keys[zone_id]
        for k, s in self._buffer:
            if k in index:  # not deleted while buffered
                index[k] = (page, s)
                zone_keys.append(k)
        self._buffer.clear()
        self._buffer_bytes = 0
        if self.device.zones[zone_id].remaining_pages == 0:
            self._open_zone = None

    def _writable_zone(self, *, now_us: float = 0.0) -> int:
        if self._open_zone is not None:
            return self._open_zone
        zone_id = self.device.find_empty_zone()
        if zone_id is None:
            zone_id = self._evict_oldest_zone(now_us=now_us)
        self._open_zone = zone_id
        self._zone_fifo.append(zone_id)
        self._zone_keys.setdefault(zone_id, [])
        return zone_id

    def _evict_oldest_zone(self, *, now_us: float = 0.0) -> int:
        victim = self._zone_fifo.popleft()
        for key in self._zone_keys.pop(victim, []):
            entry = self._index.get(key)
            if entry is not None and entry[0] >= 0 and (
                self.geometry.page_to_zone(entry[0]) == victim
            ):
                del self._index[key]
                self.counters.evicted_objects += 1
                self.counters.evicted_bytes += entry[1]
        self.device.reset_zone(victim, now_us=now_us)
        return victim
