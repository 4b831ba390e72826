"""Page-mapping flash translation layer with greedy garbage collection.

Conventional (block-interface) SSDs hide NAND constraints behind an FTL:
the host overwrites logical block addresses (LBAs) in place, and the FTL
redirects each write to a fresh physical page, invalidating the old one.
When free blocks run low, garbage collection picks a victim erase block,
relocates its still-valid pages, and erases it — those relocations are
device-level write amplification (DLWA, §2.2).

:class:`PageMapFTL` *is* the simulated conventional SSD: the **Set**
baseline runs on it directly (it needs 50 % over-provisioning to keep
DLWA near 1, halving usable flash — Table 4).  The paper's **Kangaroo**
ran on one too (GC independent of log-to-set migration, Case 3.1); here
KG models that GC host-side on a ZNS device (DESIGN.md §1.3).

Implementation notes
--------------------
- Greedy victim selection (fewest valid pages) — the classic baseline
  policy; with uniform random invalidation it closely tracks the
  analytic ``1/(2·OP)``-style GC overhead curves.
- Victim candidates live in a valid-count bucket index (``_buckets[v]``
  holds every closed, non-free block with ``v`` valid pages), maintained
  incrementally on map/invalidate.  A victim pick takes the lowest-id
  block of the lowest non-empty bucket — the same block the previous
  O(num_blocks) linear scan chose (min valid count, ties to the lowest
  block id) — so victim *sequences* are identical, but the pick costs
  O(pages_per_block) worst case instead of O(device size).
- Mapping tables are ``array('q')``, not lists: 8 bytes per entry
  instead of a pointer to a boxed int, which matters on the larger
  simulated geometries.
- Over-provisioning is expressed exactly as in the paper's simplified
  form (§3.2): the host sees ``(1 - op_ratio)`` of raw pages as LBAs.
- One active block receives all host and GC writes (single append
  point); :data:`GC_WATERMARK_BLOCKS` free blocks trigger collection.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import Any

from repro.errors import ConfigError, FTLError, OutOfSpaceError, ReadError
from repro.flash.device import NandArray
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel
from repro.flash.stats import FlashStats

#: Sentinel for "LBA not mapped".
UNMAPPED = -1

#: Sentinel for "block not in the victim-candidate index" (free/active).
NOT_INDEXED = -1

#: GC runs whenever the free-block count drops below this level.
GC_WATERMARK_BLOCKS = 2


class PageMapFTL:
    """Page-level LBA→PPN mapping with greedy GC.

    Parameters
    ----------
    geometry:
        Raw device layout.
    op_ratio:
        Fraction of raw pages reserved as over-provisioning (the paper's
        ``X``).  The host address space has
        ``floor(num_pages * (1 - op_ratio))`` LBAs.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        *,
        op_ratio: float = 0.07,
        stats: FlashStats | None = None,
        latency: LatencyModel | None = None,
    ) -> None:
        if not 0.0 <= op_ratio < 1.0:
            raise ConfigError(f"op_ratio must be in [0, 1), got {op_ratio}")
        if GC_WATERMARK_BLOCKS >= geometry.num_blocks:
            raise ConfigError("the GC watermark must leave usable blocks")

        self.geometry = geometry
        self.op_ratio = op_ratio
        self.nand = NandArray(geometry)
        self.stats = stats if stats is not None else FlashStats()
        self.latency = latency

        self.num_lbas = int(geometry.num_pages * (1.0 - op_ratio))
        if self.num_lbas <= 0:
            raise ConfigError("op_ratio leaves no host-visible LBAs")
        op_pages = geometry.num_pages - self.num_lbas
        min_op_pages = GC_WATERMARK_BLOCKS * geometry.pages_per_block
        if op_pages < min_op_pages:
            raise ConfigError(
                f"op_ratio={op_ratio} reserves {op_pages} pages but GC "
                f"needs at least {min_op_pages} (watermark blocks x "
                "pages/block); a real FTL with less spare deadlocks"
            )

        # Mapping tables (flat 64-bit arrays, UNMAPPED = -1).
        self._l2p = array("q", [UNMAPPED]) * self.num_lbas
        self._p2l = array("q", [UNMAPPED]) * geometry.num_pages
        self._valid_in_block = array("q", [0]) * geometry.num_blocks
        #: Live mappings == valid pages; maintained incrementally so
        #: introspection never re-scans the tables.
        self._valid_total = 0

        # Victim-candidate index: every closed, non-free block sits in
        # ``_buckets[valid_count]``; ``_block_bucket[b]`` remembers which
        # bucket (NOT_INDEXED for free/active blocks).  ``_min_bucket``
        # is a lower bound on the lowest non-empty bucket — it only
        # moves down when a block's count drops, and the pick loop walks
        # it back up, so scans are amortised O(1) per count change.
        ppb = geometry.pages_per_block
        self._buckets: list[set[int]] = [set() for _ in range(ppb + 1)]
        self._block_bucket = array("q", [NOT_INDEXED]) * geometry.num_blocks
        self._min_bucket = ppb

        # Free-block pool (FIFO: erased blocks re-enter at the tail) and
        # the active (write-frontier) block.
        self._free_blocks: deque[int] = deque(range(geometry.num_blocks))
        self._active_block = self._free_blocks.popleft()
        self._active_offset = 0

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------
    def write(self, lba: int, payload: Any, *, now_us: float = 0.0) -> float:
        """Overwrite ``lba`` with ``payload``; returns latency in µs.

        Counts one host page write; GC relocations triggered by the
        write are accounted as flash (not host) writes.
        """
        self._check_lba(lba)
        old_ppn = self._l2p[lba]
        if old_ppn != UNMAPPED:
            self._invalidate(old_ppn)
        new_ppn = self._allocate_page()
        self.nand.program(new_ppn, payload)
        self._map(lba, new_ppn)
        self.stats.record_host_write(self.geometry.page_size, also_flash=False)
        self.stats.flash_write_bytes += self.geometry.page_size
        lat = self.latency.program(new_ppn, now_us) if self.latency else 0.0
        self._maybe_gc(now_us=now_us)
        return lat

    def read(self, lba: int, *, now_us: float = 0.0) -> tuple[Any, float]:
        """Read ``lba``; returns ``(payload, latency_us)``."""
        self._check_lba(lba)
        ppn = self._l2p[lba]
        if ppn == UNMAPPED:
            raise ReadError(f"LBA {lba} is unmapped")
        payload = self.nand.read(ppn)
        self.stats.record_host_read(self.geometry.page_size)
        lat = self.latency.read(ppn, now_us) if self.latency else 0.0
        return payload, lat

    def record_reads(self, n: int) -> None:
        """Count ``n`` page reads whose checks the caller already made.

        The NAND read counter and the host-read accounting of ``n``
        :meth:`read` calls, for bulk GET loops that validate each page
        inline and flush their read count once per run.
        """
        self.nand.read_count += n
        self.stats.record_page_reads(n, self.geometry.page_size)

    def is_mapped(self, lba: int) -> bool:
        self._check_lba(lba)
        return self._l2p[lba] != UNMAPPED

    def trim(self, lba: int) -> None:
        """Discard ``lba`` (TRIM/deallocate), freeing its physical page."""
        self._check_lba(lba)
        ppn = self._l2p[lba]
        if ppn != UNMAPPED:
            self._invalidate(ppn)
            self._l2p[lba] = UNMAPPED

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.num_lbas:
            raise FTLError(f"LBA {lba} out of range [0, {self.num_lbas})")

    def _map(self, lba: int, ppn: int) -> None:
        self._l2p[lba] = ppn
        self._p2l[ppn] = lba
        block = ppn // self.geometry.pages_per_block
        valid = self._valid_in_block[block] + 1
        self._valid_in_block[block] = valid
        self._valid_total += 1
        if self._block_bucket[block] != NOT_INDEXED:
            self._buckets[valid - 1].discard(block)
            self._buckets[valid].add(block)
            self._block_bucket[block] = valid

    def _invalidate(self, ppn: int) -> None:
        block = ppn // self.geometry.pages_per_block
        if self._p2l[ppn] == UNMAPPED:
            raise FTLError(f"double invalidation of ppn {ppn}")
        self._p2l[ppn] = UNMAPPED
        valid = self._valid_in_block[block] - 1
        if valid < 0:
            raise FTLError(f"negative valid count in block {block}")
        self._valid_in_block[block] = valid
        self._valid_total -= 1
        if self._block_bucket[block] != NOT_INDEXED:
            self._buckets[valid + 1].discard(block)
            self._buckets[valid].add(block)
            self._block_bucket[block] = valid
            if valid < self._min_bucket:
                self._min_bucket = valid

    def _index_insert(self, block: int) -> None:
        """File a freshly-closed block under its valid count."""
        valid = self._valid_in_block[block]
        self._buckets[valid].add(block)
        self._block_bucket[block] = valid
        if valid < self._min_bucket:
            self._min_bucket = valid

    def _index_remove(self, block: int) -> None:
        """Drop a block from the candidate index (picked for GC)."""
        bucket = self._block_bucket[block]
        if bucket != NOT_INDEXED:
            self._buckets[bucket].discard(block)
            self._block_bucket[block] = NOT_INDEXED

    def _allocate_page(self) -> int:
        """Next physical page at the write frontier, advancing blocks."""
        if self._active_offset == self.geometry.pages_per_block:
            if not self._free_blocks:
                raise OutOfSpaceError("FTL has no free blocks (GC failed?)")
            # The filled block closes and becomes a GC candidate.
            self._index_insert(self._active_block)
            self._active_block = self._free_blocks.popleft()
            self._active_offset = 0
        ppn = (
            self.geometry.block_first_page(self._active_block) + self._active_offset
        )
        self._active_offset += 1
        return ppn

    @property
    def free_block_count(self) -> int:
        # The partially-written active block still has room, count it as
        # free capacity only via _active_offset; watermark is on whole
        # free blocks.
        return len(self._free_blocks)

    def _maybe_gc(self, *, now_us: float = 0.0) -> None:
        ppb = self.geometry.pages_per_block
        while self.free_block_count < GC_WATERMARK_BLOCKS:
            victim = self._pick_victim()
            if victim is None:
                break
            if self._valid_in_block[victim] >= ppb and self.free_block_count >= 1:
                # Every candidate is fully valid: relocating gains
                # nothing.  The invalid inventory is trapped in the
                # active block; defer GC until that block rotates into
                # the candidate set (one reserve block remains to absorb
                # writes until then).
                break
            self._gc_once(victim, now_us=now_us)

    def _gc_once(self, victim: int | None = None, *, now_us: float = 0.0) -> None:
        if victim is None:
            victim = self._pick_victim()
        if victim is None:
            raise OutOfSpaceError("no GC victim available")
        self._index_remove(victim)
        first = self.geometry.block_first_page(victim)
        relocated = 0
        for ppn in range(first, first + self.geometry.pages_per_block):
            lba = self._p2l[ppn]
            if lba == UNMAPPED:
                continue
            # Relocate the valid page to the write frontier.
            payload = self.nand.read(ppn)
            self._invalidate(ppn)
            new_ppn = self._allocate_page()
            self.nand.program(new_ppn, payload)
            self._map(lba, new_ppn)
            relocated += 1
        self.nand.erase_block(victim)
        self._free_blocks.append(victim)
        self.stats.record_gc(relocated, self.geometry.page_size)
        self.stats.record_erase()
        if self.latency:
            self.latency.erase(first, now_us)

    def _pick_victim(self) -> int | None:
        """Greedy: the non-active block with the fewest valid pages.

        Peeks (does not remove) the lowest-id member of the lowest
        non-empty valid-count bucket; ``_gc_once`` unindexes the victim
        when it actually collects it.
        """
        buckets = self._buckets
        b = self._min_bucket
        top = len(buckets) - 1
        while b <= top and not buckets[b]:
            b += 1
        self._min_bucket = b if b <= top else top
        if b > top:
            return None
        return min(buckets[b])

    # ------------------------------------------------------------------
    # Introspection (for tests and experiments)
    # ------------------------------------------------------------------
    def mapped_lba_count(self) -> int:
        return self._valid_total

    def check_invariants(self) -> None:
        """Audit internal consistency; raises :class:`FTLError` on drift.

        Recomputes every incrementally-maintained quantity (valid
        counts, the live-mapping total, the victim bucket index) from
        the raw tables, so a stale counter or mis-filed bucket cannot
        hide behind its own cache.
        """
        mapped = sum(1 for p in self._l2p if p != UNMAPPED)
        valid = sum(self._valid_in_block)
        if mapped != valid:
            raise FTLError(
                f"mapped LBA count != valid page count ({mapped} != {valid})"
            )
        if self._valid_total != valid:
            raise FTLError(
                f"stale valid-total counter ({self._valid_total} != {valid})"
            )
        for lba, ppn in enumerate(self._l2p):
            if ppn != UNMAPPED and self._p2l[ppn] != lba:
                raise FTLError(f"l2p/p2l mismatch at lba={lba}, ppn={ppn}")
        ppb = self.geometry.pages_per_block
        per_block = [0] * self.geometry.num_blocks
        for ppn, lba in enumerate(self._p2l):
            if lba != UNMAPPED:
                per_block[ppn // ppb] += 1
        free = set(self._free_blocks)
        for block in range(self.geometry.num_blocks):
            if per_block[block] != self._valid_in_block[block]:
                raise FTLError(
                    f"stale valid count in block {block} "
                    f"({self._valid_in_block[block]} != {per_block[block]})"
                )
            bucket = self._block_bucket[block]
            indexed = bucket != NOT_INDEXED
            closed = block != self._active_block and block not in free
            if indexed != closed:
                raise FTLError(
                    f"block {block}: indexed={indexed} but closed={closed}"
                )
            if indexed:
                if bucket != per_block[block]:
                    raise FTLError(
                        f"block {block} filed under bucket {bucket}, "
                        f"has {per_block[block]} valid pages"
                    )
                if block not in self._buckets[bucket]:
                    raise FTLError(
                        f"block {block} missing from bucket {bucket}"
                    )
        indexed_total = sum(len(b) for b in self._buckets)
        expected = self.geometry.num_blocks - 1 - len(free)
        if indexed_total != expected:
            raise FTLError(
                f"bucket index holds {indexed_total} blocks, expected {expected}"
            )
