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

from repro.errors import (
    AlignmentError,
    DeviceError,
    DeviceRetiredError,
    ReadError,
    UncorrectableReadError,
)
from repro.faults.plan import FaultPlan
from repro.flash.geometry import FlashGeometry
from repro.flash.stats import FlashStats

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
        # Fault injection (DESIGN.md §7).  ``None`` keeps every hot path
        # on a single pointer comparison; the layer is fully inert until
        # install_fault_plan() is called with a plan that can fire.
        self._fault_plan: FaultPlan | None = None
        self._fault_stats: FlashStats | None = None
        self._spare_blocks_left = 0
        #: Block ids retired as grown bad blocks (each transparently
        #: remapped to a spare, so the address keeps working).
        self.retired_blocks: list[int] = []

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def install_fault_plan(
        self, plan: FaultPlan | None, stats: FlashStats | None = None
    ) -> None:
        """Install (or, with ``None``, remove) a fault plan.

        ``stats`` receives retry/retirement accounting; faults still
        fire without it, they are just not counted.
        """
        self._fault_plan = plan
        self._fault_stats = stats
        self._spare_blocks_left = plan.config.spare_blocks if plan is not None else 0

    @property
    def fault_plan(self) -> FaultPlan | None:
        return self._fault_plan

    @property
    def spare_blocks_remaining(self) -> int:
        return self._spare_blocks_left

    def _retire_block(self, block: int) -> None:
        """Remap a grown bad block to a spare, or declare end-of-life.

        The remap is transparent: the spare physically substitutes the
        bad block at the same address, so page arithmetic, GC state, and
        zone capacity are preserved while the hidden spare pool (the
        device's effective over-provisioning) shrinks.
        """
        if self._spare_blocks_left <= 0:
            raise DeviceRetiredError(
                f"block {block} failed with no spare blocks left: "
                "device reached end of life"
            )
        self._spare_blocks_left -= 1
        self.retired_blocks.append(block)
        if self._fault_stats is not None:
            self._fault_stats.record_block_retired()

    def _note_read_faults(self, page: int) -> None:
        """Run one read's transient-failure/retry loop.

        Each failed attempt triggers a bounded re-read (accounted as an
        extra physical read); an exhausted budget escalates to the ECC /
        parity rescue path — or raises, when the plan marks read
        failures fatal.
        """
        plan = self._fault_plan
        assert plan is not None
        stats = self._fault_stats
        retries = 0
        while plan.should_fail_read():
            if retries >= plan.config.max_read_retries:
                if plan.config.read_failures_fatal:
                    raise UncorrectableReadError(
                        f"page {page} unreadable after {retries} retries"
                    )
                if stats is not None:
                    stats.record_ecc_rescue()
                return
            retries += 1
            self.read_count += 1
            if stats is not None:
                stats.record_read_retry(self.geometry.page_size)

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
        if self._fault_plan is not None and self._fault_plan.should_fail_program():
            # The attempt burned a program cycle on what is now a grown
            # bad block; remap to a spare and program there (same
            # address), shrinking effective over-provisioning.
            self.program_count += 1
            if self._fault_stats is not None:
                self._fault_stats.record_program_failure(self.geometry.page_size)
            self._retire_block(page // self._pages_per_block)
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
        if self._fault_plan is not None:
            self._note_read_faults(page)
        return self._payload[page]

    def read_pages(self, pages: list[int]) -> None:
        """Count reads of many programmed pages without returning payloads.

        The batched counterpart of :meth:`read` for callers that discard
        the payloads: same validation and ``read_count`` accounting, one
        call for the whole batch.
        """
        state = self._state
        num_pages = self._num_pages
        for page in pages:
            if not 0 <= page < num_pages:
                raise AlignmentError(
                    f"page {page} out of range [0, {num_pages})"
                )
            if state[page] != PAGE_PROGRAMMED:
                raise ReadError(f"page {page} is not programmed")
        self.read_count += len(pages)
        if self._fault_plan is not None:
            for page in pages:
                self._note_read_faults(page)

    def erase_block(self, block: int) -> None:
        """Erase every page in ``block``."""
        self.geometry.check_block(block)
        if self._fault_plan is not None and self._fault_plan.should_fail_erase():
            self._note_erase_failure(block)
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
        if self._fault_plan is not None:
            for block in range(first_block, first_block + bpz):
                if self._fault_plan.should_fail_erase():
                    self._note_erase_failure(block)
        self._erase_page_range(zone * ppz, (zone + 1) * ppz)
        self.erase_count += bpz
        for block in range(first_block, first_block + bpz):
            self.block_erases[block] += 1

    def _note_erase_failure(self, block: int) -> None:
        """An erase attempt failed: retire the block to a spare.

        The failed attempt is accounted, the spare substitutes the bad
        block at the same address, and the erase then succeeds on it.
        """
        if self._fault_stats is not None:
            self._fault_stats.record_erase_failure()
        self._retire_block(block)

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
