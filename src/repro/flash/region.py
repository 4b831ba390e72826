"""A zone region: the free, open and written zones of one flash area.

The zone is the unit of allocation and erase (§4.1).  A region owns the
life cycle of a fixed set of zones: appends go to the open zone, written
zones queue oldest first, and a reclaimed zone is reset and joins the
back of the free FIFO.  Engines own the victim choice and what happens
to a victim's data before :meth:`ZoneRegion.reclaim`.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.errors import EngineStateError
from repro.flash.zns import ZNSDevice


class ZoneRegion:
    """Zones ``zone_ids`` of ``device``: each is in ``free`` (a FIFO) or
    in ``written`` (oldest first, the open zone included)."""

    def __init__(self, device: ZNSDevice, zone_ids: Iterable[int]) -> None:
        self.device = device
        self.zone_ids = list(zone_ids)
        self._zones = device.zones
        self._pages_per_zone = device.geometry.pages_per_zone
        self.capacity_pages = len(self.zone_ids) * self._pages_per_zone
        self.free: deque[int] = deque(self.zone_ids)
        self.written: deque[int] = deque()
        self._open: int | None = None

    @property
    def open(self) -> int | None:
        """The zone appends go to; None once it has no room left."""
        zone = self._open
        return zone if zone is not None and self._zones[zone].remaining_pages else None

    def zone_with_room(self, pages: int = 1) -> int | None:
        """The open zone if ``pages`` fit, else the next free zone, now
        open (the one it replaces stays written); None if none is free."""
        zone = self._open
        if zone is not None and self._zones[zone].remaining_pages >= pages:
            return zone
        zone = self._open = self.free.popleft() if self.free else None
        if zone is not None:
            self.written.append(zone)
        return zone

    def free_pages(self) -> int:
        """Free zones' pages plus the open zone's room."""
        zone = self._open
        room = self._zones[zone].remaining_pages if zone is not None else 0
        return len(self.free) * self._pages_per_zone + room

    def reclaim(self, zone: int, *, now_us: float = 0.0) -> None:
        """Reset written ``zone`` and append it to ``free``."""
        self.written.remove(zone)
        if zone == self._open:
            self._open = None
        self.device.reset_zone(zone, now_us=now_us)
        self.free.append(zone)

    def check_invariants(self) -> None:
        """Raise :class:`EngineStateError` unless free and written
        partition the zones and the open zone is a written one."""
        if sorted([*self.free, *self.written]) != sorted(self.zone_ids):
            raise EngineStateError(
                f"free {list(self.free)} + written {list(self.written)} "
                f"zones do not partition {self.zone_ids}"
            )
        if self._open is not None and self._open not in self.written:
            raise EngineStateError(f"open zone {self._open} missing from the written zones")
