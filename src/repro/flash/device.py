"""Low-level NAND array: pages with program/erase state machines.

:class:`NandArray` models raw NAND constraints shared by every device
class in the paper:

- a page must be erased before it can be programmed (out-of-place
  updates, §2.2),
- erase happens at erase-block granularity,
- reads target programmed pages only.

Page *payloads* are arbitrary Python objects supplied by the layer above
(cache engines store per-set object tables, bloom-filter pages, or log
segments).  The simulator never serialises payloads — byte accounting is
done with the geometry's page size, which is exact because the paper's
engines always write whole pages.
"""

from __future__ import annotations

from typing import Any

from repro.errors import AlignmentError, DeviceError, ReadError
from repro.flash.geometry import FlashGeometry

#: Page states.
PAGE_ERASED = 0
PAGE_PROGRAMMED = 1


class NandArray:
    """A raw array of NAND pages with per-page program state.

    This class enforces NAND's physical rules and counts physical
    operations; policy (placement, mapping, GC) lives in the devices
    built on top of it.
    """

    def __init__(self, geometry: FlashGeometry) -> None:
        self.geometry = geometry
        n = geometry.num_pages
        self._num_pages = n
        self._state = bytearray(n)  # PAGE_ERASED / PAGE_PROGRAMMED
        self._payload: list[Any] = [None] * n
        self._pages_per_block = geometry.pages_per_block
        self.program_count = 0
        self.read_count = 0
        self.erase_count = 0
        #: per-block erase counters (wear), indexed by block id.
        self.block_erases = [0] * geometry.num_blocks

    # ------------------------------------------------------------------
    def is_programmed(self, page: int) -> bool:
        self.geometry.check_page(page)
        return self._state[page] == PAGE_PROGRAMMED

    def program(self, page: int, payload: Any) -> None:
        """Program one erased page with ``payload``."""
        # Hot path (one call per simulated page write): bounds check
        # inlined rather than delegated to ``geometry.check_page``.
        if not 0 <= page < self._num_pages:
            raise AlignmentError(
                f"page {page} out of range [0, {self._num_pages})"
            )
        if self._state[page] == PAGE_PROGRAMMED:
            raise DeviceError(
                f"page {page} already programmed; erase its block first"
            )
        self._state[page] = PAGE_PROGRAMMED
        self._payload[page] = payload
        self.program_count += 1

    def read(self, page: int) -> Any:
        """Return the payload of a programmed page."""
        # Hot path (one call per simulated page read): bounds check
        # inlined rather than delegated to ``geometry.check_page``.
        if not 0 <= page < self._num_pages:
            raise AlignmentError(
                f"page {page} out of range [0, {self._num_pages})"
            )
        if self._state[page] != PAGE_PROGRAMMED:
            raise ReadError(f"page {page} is not programmed")
        self.read_count += 1
        return self._payload[page]

    def erase_block(self, block: int) -> None:
        """Erase every page in ``block``."""
        self.geometry.check_block(block)
        first = self.geometry.block_first_page(block)
        self._erase_page_range(first, first + self.geometry.pages_per_block)
        self.erase_count += 1
        self.block_erases[block] += 1

    def erase_zone(self, zone: int) -> None:
        """Erase every block in ``zone`` (a ZNS zone reset).

        One flat pass over the zone's page range — the per-block page
        arithmetic of repeated ``erase_block`` calls is hoisted out —
        with the same counter semantics (one erase op per member block).
        """
        self.geometry.check_zone(zone)
        ppz = self.geometry.pages_per_zone
        bpz = self.geometry.blocks_per_zone
        first_block = zone * bpz
        self._erase_page_range(zone * ppz, (zone + 1) * ppz)
        self.erase_count += bpz
        for block in range(first_block, first_block + bpz):
            self.block_erases[block] += 1

    def _erase_page_range(self, first: int, stop: int) -> None:
        self._state[first:stop] = bytes(stop - first)
        self._payload[first:stop] = [None] * (stop - first)

    # ------------------------------------------------------------------
    def programmed_pages_in_block(self, block: int) -> int:
        self.geometry.check_block(block)
        first = self.geometry.block_first_page(block)
        return self._state.count(
            PAGE_PROGRAMMED, first, first + self._pages_per_block
        )

    def max_block_erases(self) -> int:
        """Highest per-block erase count (wear hot spot)."""
        return max(self.block_erases)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        programmed = sum(self._state)
        return (
            f"NandArray({self.geometry.describe()}, "
            f"{programmed}/{self.geometry.num_pages} pages programmed)"
        )
