"""Flash geometry: pages, erase blocks, zones, and capacity arithmetic.

A single :class:`FlashGeometry` value is shared by a device, its FTL (for
conventional SSDs), and the cache engine configuration, so that all three
agree on page size and capacity.  The defaults model a scaled-down ZN540:
4 KiB pages and zones that are an integer number of erase blocks.

The paper's geometry (for reference):

- page (= set) size: 4 KiB
- ZN540 zone capacity: 1077 MB → one Nemo Set-Group of 275,712 sets
- total flash given to the cache: 360 GB

A pure-Python simulator cannot replay that scale, so experiments run on
MiB-scale devices of 1 MiB zones (:func:`repro.engines.geometry`); all
WA quantities in the paper's model are ratios and therefore scale-free
(see DESIGN.md §3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AlignmentError, ConfigError

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Default flash page size (bytes).  Matches the paper's 4 KiB sets.
DEFAULT_PAGE_SIZE = 4 * KIB

#: Default pages per erase block.  Real TLC blocks are larger (~1–4 MiB of
#: pages); 64 pages (256 KiB blocks) keeps simulated GC fast while
#: preserving the valid-page-relocation behaviour.
DEFAULT_PAGES_PER_BLOCK = 64


@dataclass(frozen=True)
class FlashGeometry:
    """Immutable description of a flash device's layout.

    Parameters
    ----------
    page_size:
        Bytes per flash page — the smallest program/read unit.
    pages_per_block:
        Pages per erase block — the erase unit of conventional devices.
    num_blocks:
        Total erase blocks in the device (raw capacity, including any
        over-provisioned share).
    blocks_per_zone:
        Erase blocks per zone (only meaningful for ZNS devices; a
        conventional device simply ignores zones).
    """

    page_size: int = DEFAULT_PAGE_SIZE
    pages_per_block: int = DEFAULT_PAGES_PER_BLOCK
    num_blocks: int = 1024
    blocks_per_zone: int = 16

    # Derived sizes, precomputed once: ``check_page`` sits on the flash
    # read hot path (every simulated page read), so these must be plain
    # attribute loads, not per-call property arithmetic.
    block_size: int = field(init=False, repr=False, compare=False, default=0)
    zone_size: int = field(init=False, repr=False, compare=False, default=0)
    pages_per_zone: int = field(init=False, repr=False, compare=False, default=0)
    num_zones: int = field(init=False, repr=False, compare=False, default=0)
    num_pages: int = field(init=False, repr=False, compare=False, default=0)
    capacity_bytes: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ConfigError(f"page_size must be positive, got {self.page_size}")
        if self.pages_per_block <= 0:
            raise ConfigError(
                f"pages_per_block must be positive, got {self.pages_per_block}"
            )
        if self.num_blocks <= 0:
            raise ConfigError(f"num_blocks must be positive, got {self.num_blocks}")
        if self.blocks_per_zone <= 0:
            raise ConfigError(
                f"blocks_per_zone must be positive, got {self.blocks_per_zone}"
            )
        if self.num_blocks % self.blocks_per_zone != 0:
            raise ConfigError(
                "num_blocks must be a multiple of blocks_per_zone "
                f"({self.num_blocks} % {self.blocks_per_zone} != 0)"
            )
        set_attr = object.__setattr__  # frozen dataclass
        set_attr(self, "block_size", self.page_size * self.pages_per_block)
        set_attr(self, "zone_size", self.block_size * self.blocks_per_zone)
        set_attr(self, "pages_per_zone", self.pages_per_block * self.blocks_per_zone)
        set_attr(self, "num_zones", self.num_blocks // self.blocks_per_zone)
        set_attr(self, "num_pages", self.num_blocks * self.pages_per_block)
        set_attr(self, "capacity_bytes", self.num_pages * self.page_size)

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------
    def page_to_zone(self, page: int) -> int:
        """Zone containing physical page ``page``."""
        self.check_page(page)
        return page // self.pages_per_zone

    def block_first_page(self, block: int) -> int:
        self.check_block(block)
        return block * self.pages_per_block

    def zone_first_page(self, zone: int) -> int:
        self.check_zone(zone)
        return zone * self.pages_per_zone

    def check_page(self, page: int) -> None:
        if not 0 <= page < self.num_pages:
            raise AlignmentError(
                f"page {page} out of range [0, {self.num_pages})"
            )

    def check_block(self, block: int) -> None:
        if not 0 <= block < self.num_blocks:
            raise AlignmentError(
                f"block {block} out of range [0, {self.num_blocks})"
            )

    def check_zone(self, zone: int) -> None:
        if not 0 <= zone < self.num_zones:
            raise AlignmentError(
                f"zone {zone} out of range [0, {self.num_zones})"
            )

    def describe(self) -> str:
        """Human-readable one-line summary of the layout."""
        return (
            f"{self.capacity_bytes / MIB:.1f} MiB: "
            f"{self.num_zones} zones x {self.zone_size / MIB:.2f} MiB, "
            f"{self.num_blocks} blocks x {self.pages_per_block} pages x "
            f"{self.page_size} B"
        )
