"""Hierarchical-cache front tier: the HLog (§2.3, Figure 2).

The HLog is a small append-only flash log (typically 5 % of the device)
fronted by an in-memory hash table with one bucket per *migration
target* (a back-tier set for Kangaroo, a cold set for FairyWREN).  Each
bucket records the objects currently resident in the log that map to its
set, "ensuring the table entries number equals the number of sets"
(§2.3) — this is what lets a single back-tier set write install a whole
bucket of objects at once.

Life cycle:

1. Incoming objects are buffered into a 4 KiB page; full pages append to
   the log's zones (high fill rate — the ``1/E(FR_i)`` term of Eq. 1 is
   close to 1).
2. When the log runs out of space, the oldest zone is reclaimed: every
   object in it that is still *current* (not superseded, not already
   actively migrated) forces its bucket to be flushed to the back tier —
   **passive migration**, the paper's Case 2.
3. FairyWREN additionally drains buckets early during back-tier GC —
   **active migration**, Case 3.2 — via :meth:`drain_bucket`.

Sequence numbers disambiguate superseded copies: a bucket entry and its
log-page record carry the same ``seq``; only a matching pair is current.
A log page's payload is ``{key: (size, seq, bucket)}``: the record keeps
its bucket, so reclaiming a zone never re-hashes a key.  The log never
hashes at all: the engine passes each key's bucket (its placement hash)
on every call.
"""

from __future__ import annotations

from repro.errors import ConfigError, EngineStateError, ObjectTooLargeError
from repro.flash.region import ZoneRegion
from repro.flash.zns import ZNSDevice


class LogEntry:
    """One object resident in the HLog.

    Mutable: the page flush sets ``page`` on the buffered entry in place.
    """

    __slots__ = ("key", "size", "seq", "page")

    def __init__(self, key: int, size: int, seq: int, page: int = -1) -> None:
        self.key = key
        self.size = size
        self.seq = seq
        self.page = page  # physical flash page; -1 while still in the write buffer

    def __repr__(self) -> str:
        return f"LogEntry(key={self.key}, size={self.size}, seq={self.seq}, page={self.page})"


class HierarchicalLog:
    """Flash log + per-set bucket table for hierarchical caches.

    Parameters
    ----------
    device:
        The shared ZNS device; the log owns ``zone_ids`` on it.
    zone_ids:
        Zones of the log's :class:`~repro.flash.region.ZoneRegion`,
        reclaimed oldest first.
    num_buckets:
        Hash-table buckets == number of migration-target sets.
    """

    def __init__(
        self,
        device: ZNSDevice,
        zone_ids: list[int],
        num_buckets: int,
    ) -> None:
        if not zone_ids:
            raise ConfigError("HLog needs at least one zone")
        if num_buckets <= 0:
            raise ConfigError("num_buckets must be positive")
        self.device = device
        self.region = ZoneRegion(device, zone_ids)
        self.num_buckets = num_buckets
        self.page_size = device.geometry.page_size

        # bucket id -> {key: LogEntry}; insertion order preserved.
        self.buckets: list[dict[int, LogEntry]] = [dict() for _ in range(num_buckets)]
        self._object_count = 0

        # Write buffer for the open page (+ each entry's bucket, so the
        # flush doesn't re-hash every buffered key).
        self._buffer: list[LogEntry] = []
        self._buffer_buckets: list[int] = []
        self._buffer_bytes = 0

        self._seq = 0

    # ------------------------------------------------------------------
    def object_count(self) -> int:
        return self._object_count

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(
        self, key: int, size: int, *, bucket: int, now_us: float = 0.0
    ) -> bool:
        """Buffer one object into bucket ``bucket`` of the log.

        Returns ``False`` when the log is out of space — the caller must
        run :meth:`reclaim_oldest_zone` (passive migration) and retry.
        A superseded copy of ``key`` is invalidated in place.
        """
        if size > self.page_size:
            raise ObjectTooLargeError(
                f"object of {size} B exceeds the {self.page_size} B page"
            )
        if self._buffer_bytes + size > self.page_size and not self._flush_buffer(
            now_us=now_us
        ):
            return False
        entries = self.buckets[bucket]
        if entries.pop(key, None) is None:
            self._object_count += 1
        self._seq += 1
        entry = entries[key] = LogEntry(key, size, self._seq)
        self._buffer.append(entry)
        self._buffer_buckets.append(bucket)
        self._buffer_bytes += size
        return True

    def _flush_buffer(self, *, now_us: float = 0.0) -> bool:
        """Write the open page buffer to flash; False when out of space."""
        if not self._buffer:
            return True
        zone_id = self.region.zone_with_room()
        if zone_id is None:
            return False
        # The page payload ``{key: (size, seq, bucket)}`` is what the
        # victim scan of :meth:`reclaim_oldest_zone` reads back; the
        # bucket rides along so the scan never re-hashes a key.  It is
        # filled below, after the append, with the records still current
        # at flush time; the NAND stores the reference, so populating
        # the dict afterwards writes through to the flash payload.
        objs: dict[int, tuple[int, int, int]] = {}
        page, _ = self.device.append(zone_id, objs, now_us=now_us)
        buckets = self.buckets
        for e, b in zip(self._buffer, self._buffer_buckets):
            # Current iff the bucket still holds this very entry: a
            # superseded, removed or drained one has been replaced or
            # dropped.
            if buckets[b].get(e.key) is e:
                e.page = page
                objs[e.key] = (e.size, e.seq, b)
        self._buffer.clear()
        self._buffer_buckets.clear()
        self._buffer_bytes = 0
        return True

    # ------------------------------------------------------------------
    # Migration support
    # ------------------------------------------------------------------
    def reclaim_oldest_zone(self, *, now_us: float = 0.0) -> list[int]:
        """Reclaim the oldest log zone (passive-migration trigger).

        Returns the bucket ids (read from the page records) whose
        objects were resident in the zone and are still current — the
        caller must flush each of those buckets into the back tier
        (:meth:`drain_bucket`) *before* the next insert, because this
        method drops the flash copies.
        """
        if not self.region.written:
            raise EngineStateError("no log zone to reclaim")
        # The oldest zone, even when it is the open one.
        victim = self.region.written[0]
        geo = self.device.geometry
        first = geo.zone_first_page(victim)
        wp = self.device.zones[victim].write_pointer
        buckets = self.buckets
        stale_buckets: set[int] = set()
        for page in range(first, first + wp):
            # A record is current iff its bucket still holds the same
            # seq: superseded, removed and drained copies all fail that.
            for key, (_size, seq, b) in self.device.read_page(page).items():
                cur = buckets[b].get(key)
                if cur is not None and cur.seq == seq:
                    stale_buckets.add(b)
        self.region.reclaim(victim, now_us=now_us)
        return sorted(stale_buckets)

    def drain_bucket(self, bucket_id: int) -> list[tuple[int, int]]:
        """Remove and return all current objects of one bucket.

        Used by both migration paths: the back tier installs the
        returned ``(key, size)`` pairs into the bucket's target set.
        """
        bucket = self.buckets[bucket_id]
        objs = [(e.key, e.size) for e in bucket.values()]
        self._object_count -= len(bucket)
        bucket.clear()
        return objs

    def remove(self, key: int, *, bucket: int) -> LogEntry | None:
        """Remove ``key`` from bucket ``bucket`` (user-driven delete)."""
        entry = self.buckets[bucket].pop(key, None)
        if entry is not None:
            self._object_count -= 1
        return entry

    def bucket_len(self, bucket_id: int) -> int:
        return len(self.buckets[bucket_id])
