"""Parallel Bloom Filter Groups: layout and construction (§4.3, Fig. 10).

Nemo's index is one bloom filter per *set* (not per SG): all set-level
filters at the same intra-SG offset across the SGs of one *index group*
form a **Set-level PBFG**, and a lookup answers "which SGs may hold this
key?" by querying one PBFG per index group in parallel.

The physical layout optimisation (Fig. 10(b)) packs the filters of one
PBFG contiguously so retrieving it costs **one** flash page read instead
of one read per member SG: the in-memory index group buffers the filters
of ``sgs_per_index_group`` SGs, then writes them page-major by offset.
With the paper's parameters (72 B filters, 50 SGs/group) each page holds
exactly one PBFG; with smaller groups several consecutive offsets' PBFGs
share a page (``offsets_per_page``), which strictly improves on the
paper's layout while preserving its one-read property.

:class:`IndexLayout` is the pure arithmetic; :class:`IndexGroupBuilder`
is the in-memory index-group buffer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.bloom import bloom_filter_bits
from repro.errors import ConfigError


@dataclass(frozen=True)
class IndexLayout:
    """Page-packing arithmetic for set-level PBFGs.

    Parameters
    ----------
    page_size:
        Flash page bytes.
    sets_per_sg:
        Intra-SG offsets (one filter per set).
    sgs_per_group:
        SGs covered by one index group (Table 3: 50).
    bf_capacity:
        Objects each set-level filter is sized for (paper: 40).
    bf_false_positive_rate:
        Target filter accuracy (Table 3: 0.1 %).
    """

    page_size: int
    sets_per_sg: int
    sgs_per_group: int
    bf_capacity: int
    bf_false_positive_rate: float

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.sets_per_sg <= 0 or self.sgs_per_group <= 0:
            raise ConfigError("page_size/sets_per_sg/sgs_per_group must be positive")
        if self.filter_bytes * self.sgs_per_group > self.page_size:
            raise ConfigError(
                f"one PBFG ({self.sgs_per_group} x {self.filter_bytes} B) "
                f"does not fit a {self.page_size} B page; lower "
                "sgs_per_group or the filter size"
            )

    @cached_property
    def filter_bits(self) -> int:
        """Set-level filter size (paper: 576 bits at 40 objs / 0.1 %)."""
        return bloom_filter_bits(self.bf_capacity, self.bf_false_positive_rate)

    @cached_property
    def filter_bytes(self) -> int:
        return self.filter_bits // 8

    @cached_property
    def pbfg_bytes(self) -> int:
        """One set-level PBFG: the group's filters for one offset."""
        return self.filter_bytes * self.sgs_per_group

    @cached_property
    def offsets_per_page(self) -> int:
        """Consecutive offsets whose PBFGs share one flash page (≥ 1)."""
        return max(1, self.page_size // self.pbfg_bytes)

    @cached_property
    def pages_per_group(self) -> int:
        """Flash pages one index group occupies."""
        return -(-self.sets_per_sg // self.offsets_per_page)  # ceil

    def page_of_offset(self, offset: int) -> int:
        """Index-group page holding the PBFG of ``offset``."""
        if not 0 <= offset < self.sets_per_sg:
            raise ConfigError(f"offset {offset} out of range")
        return offset // self.offsets_per_page

    def offsets_of_page(self, page_idx: int) -> range:
        """Offsets whose PBFGs live on group page ``page_idx``."""
        start = page_idx * self.offsets_per_page
        return range(start, min(start + self.offsets_per_page, self.sets_per_sg))

    # ------------------------------------------------------------------
    # Fig. 10 comparison
    # ------------------------------------------------------------------
    def naive_retrieval_pages(self) -> int:
        """Pages read per PBFG under the naïve per-SG layout (Fig. 10(a)).

        Storing each SG's filters contiguously scatters one PBFG's
        members across (up to) one page per SG.
        """
        return self.sgs_per_group

    def packed_retrieval_pages(self) -> int:
        """Pages read per PBFG under the packed layout (always 1)."""
        return 1

    def index_overhead_fraction(self) -> float:
        """Index pool bytes per SG-pool byte."""
        return self.pages_per_group / (self.sgs_per_group * self.sets_per_sg)


class IndexGroupBuilder:
    """In-memory index-group buffer (the "in-memory index group").

    Buffers the ids of flushed SGs; when ``sgs_per_group`` members are
    buffered, :meth:`take_group` emits the page payloads for the
    on-flash index pool.  The engine resolves membership exactly and
    draws false positives from the filter rate, so a page carries a
    placeholder, but the layout, page counts and write traffic are
    those of real filters.
    """

    def __init__(self, layout: IndexLayout) -> None:
        self.layout = layout
        self.members: list[int] = []

    def add_sg(self, sg_id: int) -> None:
        self.members.append(sg_id)

    @property
    def is_full(self) -> bool:
        return len(self.members) >= self.layout.sgs_per_group

    def take_group(self) -> tuple[list[int], list[object]]:
        """Emit the buffered group: ``(member_sg_ids, page_payloads)``.

        Page ``j`` carries the placeholder of the PBFGs of
        ``layout.offsets_of_page(j)``.  The builder is reset afterwards.
        """
        if not self.members:
            raise ConfigError("no buffered SGs to emit")
        member_ids = sorted(self.members)
        pages: list[object] = [
            ("pbfg-page", tuple(member_ids), j)
            for j in range(self.layout.pages_per_group)
        ]
        self.members.clear()
        return member_ids, pages
