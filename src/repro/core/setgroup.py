"""Sets and Set-Groups: Nemo's placement unit (§4.1).

A Set-Group (SG) is a logical array of fixed-size sets, aligned to one
device erase unit (here: one ZNS zone, so ``sets_per_sg`` equals the
zone's page count).  An SG starts *mutable in memory*, aggregating
incoming objects into its sets; at flush time it becomes an *immutable
on-flash SG* in the FIFO pool.

The in-memory SG also carries the fill-rate bookkeeping the evaluation
is built on:

- ``new_bytes_in`` — bytes of genuinely new objects routed to this SG,
  *including* objects evicted again before the flush by the delayed-
  flush technique (the paper's WA definition in §5.2 counts these);
- ``writeback_bytes_in`` — bytes re-inserted by hotness-aware writeback
  (not logical writes, so excluded from the WA denominator);
- ``fill_rate()`` / ``new_fill_rate()`` — resident and WA-relevant fill,
  whose reciprocal is Nemo's WA (Eq. 9).
"""

from __future__ import annotations

from repro.errors import ConfigError, ObjectTooLargeError


class InMemorySet:
    """One mutable set: insertion-ordered key→size with byte accounting."""

    __slots__ = ("capacity", "objects", "used_bytes")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.objects: dict[int, int] = {}
        self.used_bytes = 0

    def has_room(self, size: int) -> bool:
        return self.used_bytes + size <= self.capacity

    def add(self, key: int, size: int) -> None:
        """Add a new object; the caller must have checked capacity."""
        if size > self.capacity:
            raise ObjectTooLargeError(
                f"object of {size} B exceeds the {self.capacity} B set"
            )
        if not self.has_room(size):
            raise ConfigError("set overflow; call has_room/evict first")
        if key in self.objects:
            raise ConfigError(f"duplicate key {key}; use replace()")
        self.objects[key] = size
        self.used_bytes += size

    def replace(self, key: int, size: int) -> int:
        """Update an existing object in place; returns the old size."""
        old = self.objects[key]
        self.objects[key] = size
        self.used_bytes += size - old
        return old

    def evict_oldest(self) -> tuple[int, int]:
        """Remove and return the oldest ``(key, size)`` (FIFO)."""
        key, size = next(iter(self.objects.items()))
        del self.objects[key]
        self.used_bytes -= size
        return key, size

    def remove(self, key: int) -> int | None:
        size = self.objects.pop(key, None)
        if size is not None:
            self.used_bytes -= size
        return size

    def __len__(self) -> int:
        return len(self.objects)

    def __contains__(self, key: int) -> bool:
        return key in self.objects

    @property
    def fill(self) -> float:
        return self.used_bytes / self.capacity


class SetGroup:
    """A mutable in-memory Set-Group.

    Parameters
    ----------
    sg_id:
        Monotonic flush-sequence id assigned by the engine.
    sets_per_sg:
        Number of sets (== pages of the erase unit it will occupy).
    set_size:
        Bytes per set (== flash page size).
    """

    __slots__ = (
        "sg_id",
        "sets_per_sg",
        "set_size",
        "sets",
        "new_bytes_in",
        "writeback_bytes_in",
        "sealed",
    )

    def __init__(self, sg_id: int, sets_per_sg: int, set_size: int) -> None:
        if sets_per_sg <= 0:
            raise ConfigError("sets_per_sg must be positive")
        if set_size <= 0:
            raise ConfigError("set_size must be positive")
        self.sg_id = sg_id
        self.sets_per_sg = sets_per_sg
        self.set_size = set_size
        self.sets = [InMemorySet(set_size) for _ in range(sets_per_sg)]
        self.new_bytes_in = 0
        self.writeback_bytes_in = 0
        #: A sealed SG is being flushed: reads allowed, inserts refused
        #: (§4.2 ③: "the to-be-flushed SG no longer accepts new
        #: insertions but provides read access").
        self.sealed = False

    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.sets_per_sg * self.set_size

    @property
    def used_bytes(self) -> int:
        return sum(s.used_bytes for s in self.sets)

    def fill_rate(self) -> float:
        """Aggregate fill of all constituent sets (the paper's FR_SG)."""
        return self.used_bytes / self.capacity_bytes

    def new_fill_rate(self) -> float:
        """Fill from *new* objects only — Nemo's WA is its reciprocal."""
        return self.new_bytes_in / self.capacity_bytes

    # ------------------------------------------------------------------
    def try_insert(self, offset: int, key: int, size: int, *, writeback: bool = False) -> bool:
        """Insert into set ``offset`` if it has room.

        Returns False when the set is full (the caller escalates to the
        flush policy) or the SG is sealed.  Updates the new/writeback
        byte accounting on success.
        """
        if self.sealed:
            return False
        target = self.sets[offset]
        if key in target:
            # An update is a full logical rewrite of the object (it will
            # occupy the flushed SG once, but the user wrote it twice),
            # so the whole new size counts toward the WA denominator.
            target.replace(key, size)
            self._account(size, writeback)
            # An oversized replacement can overflow the set; shed FIFO.
            while target.used_bytes > target.capacity:
                target.evict_oldest()
            return True
        if not target.has_room(size):
            return False
        target.add(key, size)
        self._account(size, writeback)
        return True

    def _account(self, nbytes: int, writeback: bool) -> None:
        if nbytes <= 0:
            return
        if writeback:
            self.writeback_bytes_in += nbytes
        else:
            self.new_bytes_in += nbytes

    def evict_from_set(self, offset: int, needed: int) -> list[tuple[int, int]]:
        """FIFO-evict from set ``offset`` until ``needed`` bytes fit.

        This is the delayed-flush technique's "make room by evicting
        objects from the sets corresponding to their hashed key"
        (§4.2 ②).  Returns the evicted ``(key, size)`` pairs.
        """
        target = self.sets[offset]
        evicted: list[tuple[int, int]] = []
        while not target.has_room(needed) and len(target):
            evicted.append(target.evict_oldest())
        return evicted

    def find(self, offset: int, key: int) -> int | None:
        """Size of ``key`` if resident in set ``offset``, else None."""
        return self.sets[offset].objects.get(key)

    def page_payloads(self) -> list[dict[int, int]]:
        """Immutable per-set snapshots for the device write."""
        return [dict(s.objects) for s in self.sets]

    def take_payloads(self) -> list[dict[int, int]]:
        """Detach and return the live per-set dicts (zero-copy flush).

        Only a sealed SG may hand off its state: after sealing, no
        insert can touch the dicts again, so the flush path can own them
        outright instead of snapshotting ``sets_per_sg`` dict copies per
        flush.  Each constituent set is reset to empty, so the SG stays
        internally consistent (but read its fill rates *before* calling
        this — they are zeroed by the handoff).
        """
        if not self.sealed:
            raise ConfigError("take_payloads requires a sealed SG")
        payloads: list[dict[int, int]] = []
        for s in self.sets:
            payloads.append(s.objects)
            s.objects = {}
            s.used_bytes = 0
        return payloads

    def seal(self) -> None:
        self.sealed = True
