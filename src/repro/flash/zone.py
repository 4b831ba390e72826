"""Zone state machine for ZNS devices.

Mirrors the NVMe ZNS zone lifecycle the paper's devices expose (ZN540,
PM1731a, and FDP reclaim units behave analogously): a zone is EMPTY,
becomes OPEN at the first write, FULL once the write pointer reaches the
zone capacity, and returns to EMPTY on reset.  Writes must land exactly
at the write pointer (sequential-write-required zones).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ZoneStateError


class ZoneState(enum.Enum):
    """NVMe ZNS zone states (the subset a host cache exercises)."""

    EMPTY = "empty"
    OPEN = "open"
    FULL = "full"


@dataclass
class Zone:
    """One zone: id, capacity in pages, write pointer, and state."""

    zone_id: int
    capacity_pages: int
    write_pointer: int = 0
    state: ZoneState = field(default=ZoneState.EMPTY)

    def __post_init__(self) -> None:
        if self.capacity_pages <= 0:
            raise ZoneStateError("zone capacity must be positive")

    @property
    def remaining_pages(self) -> int:
        return self.capacity_pages - self.write_pointer

    def advance(self, pages: int = 1) -> int:
        """Advance the write pointer by ``pages``; return its old value.

        Raises :class:`ZoneStateError` when the zone cannot absorb the
        write (FULL, or not enough remaining capacity).
        """
        if pages <= 0:
            raise ZoneStateError("must advance by a positive page count")
        if self.state is ZoneState.FULL:
            raise ZoneStateError(f"zone {self.zone_id} is FULL")
        if pages > self.remaining_pages:
            raise ZoneStateError(
                f"zone {self.zone_id}: write of {pages} pages exceeds "
                f"remaining capacity {self.remaining_pages}"
            )
        old = self.write_pointer
        self.write_pointer += pages
        self.state = (
            ZoneState.FULL if self.write_pointer == self.capacity_pages else ZoneState.OPEN
        )
        return old

    def reset(self) -> None:
        """Reset the zone to EMPTY (host-directed erase)."""
        self.write_pointer = 0
        self.state = ZoneState.EMPTY
