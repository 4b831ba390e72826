"""Zoned Namespace (ZNS) SSD simulator.

Models the Western Digital ZN540-class device the paper evaluates on:
sequential-write-required zones written through a per-zone write pointer,
explicit host resets, and **no device-internal garbage collection** —
the host owns placement, so device-level write amplification is exactly 1
(§2.2, "DLWA can be as low as 1 on existing log-structured SSDs").

The cache engines (Nemo, FairyWREN, Log) treat one zone as one erase
unit: Nemo maps a Set-Group to a zone, FairyWREN maps HSet erase units to
zones, and the Log baseline appends segments zone-by-zone.

Every write/read is page-granular (4 KiB by default).  The device counts
host traffic in :class:`~repro.flash.stats.FlashStats` and, when a
:class:`~repro.flash.latency.LatencyModel` is attached, returns per-op
latencies so the harness can build the paper's Figure 15 percentiles.
"""

from __future__ import annotations

from typing import Any

from repro.errors import AlignmentError, DeviceError, ReadError, ZoneStateError
from repro.flash.device import PAGE_PROGRAMMED, NandArray
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel
from repro.flash.stats import FlashStats
from repro.flash.zone import Zone, ZoneState


class ZNSDevice:
    """A zoned flash device with host-managed placement.

    Parameters
    ----------
    geometry:
        Flash layout; ``geometry.num_zones`` zones are exposed.
    stats:
        Shared statistics sink.  Engines typically pass the same object
        they record logical traffic into, so ALWA/DLWA are computed over
        consistent counters.
    latency:
        Optional latency model; when present, I/O methods return the
        simulated completion latency in microseconds (else 0.0).
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        *,
        stats: FlashStats | None = None,
        latency: LatencyModel | None = None,
    ) -> None:
        self.geometry = geometry
        self.nand = NandArray(geometry)
        self.stats = stats if stats is not None else FlashStats()
        self.latency = latency
        self.zones = [
            Zone(zone_id=z, capacity_pages=geometry.pages_per_zone)
            for z in range(geometry.num_zones)
        ]

    # ------------------------------------------------------------------
    # Zone discovery
    # ------------------------------------------------------------------
    @property
    def num_zones(self) -> int:
        return len(self.zones)

    def zone_state(self, zone_id: int) -> ZoneState:
        return self.zones[zone_id].state

    def empty_zones(self) -> list[int]:
        return [z.zone_id for z in self.zones if z.state is ZoneState.EMPTY]

    def find_empty_zone(self) -> int | None:
        """Lowest-numbered EMPTY zone, or ``None`` when all are in use."""
        for z in self.zones:
            if z.state is ZoneState.EMPTY:
                return z.zone_id
        return None

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def append(self, zone_id: int, payload: Any, *, now_us: float = 0.0) -> tuple[int, float]:
        """Zone-append one page; returns ``(physical_page, latency_us)``."""
        zone = self.zones[zone_id]
        offset = zone.advance(1)
        page = self.geometry.zone_first_page(zone_id) + offset
        self.nand.program(page, payload)
        self.stats.record_host_write(self.geometry.page_size)
        lat = self.latency.program(page, now_us) if self.latency else 0.0
        return page, lat

    def append_page(self, zone_id: int, payload: Any) -> int:
        """Latency-free single-page zone append for engine hot paths.

        Equivalent to ``append(zone_id, payload)[0]`` when no latency
        model is attached; the host-write accounting is inlined because
        this is the single most-called write route through the device
        during hierarchical (KG/FW) replay.
        """
        # Zone.advance inlined (single-page case of its state machine).
        zone = self.zones[zone_id]
        offset = zone.write_pointer
        if offset >= zone.capacity_pages:
            raise ZoneStateError(f"zone {zone.zone_id} is FULL")
        zone.write_pointer = offset + 1
        zone.state = (
            ZoneState.FULL
            if offset + 1 == zone.capacity_pages
            else ZoneState.OPEN
        )
        page = zone_id * self.geometry.pages_per_zone + offset
        # NANDArray.program inlined: the zone state machine above
        # already bounds the page, so only the double-program check
        # remains.
        nand = self.nand
        state = nand._state
        if state[page] == PAGE_PROGRAMMED:
            raise DeviceError(
                f"page {page} already programmed; erase its block first"
            )
        state[page] = PAGE_PROGRAMMED
        nand._payload[page] = payload
        nand.program_count += 1
        stats = self.stats
        nbytes = self.geometry.page_size
        stats.host_write_bytes += nbytes
        stats.host_write_ops += 1
        stats.flash_write_bytes += nbytes
        return page

    def append_many(
        self, zone_id: int, payloads: list[Any], *, now_us: float = 0.0
    ) -> tuple[list[int], float]:
        """Batched zone-append (one large sequential write).

        Used for Nemo's SG flushes — the whole batch is issued at once
        and stripes across channels, which is why Nemo's writes interfere
        far less with reads than FW's continuous small writes.
        Returns the programmed physical pages and the batch latency.
        """
        zone = self.zones[zone_id]
        if len(payloads) > zone.remaining_pages:
            raise ZoneStateError(
                f"zone {zone_id}: batch of {len(payloads)} pages exceeds "
                f"remaining capacity {zone.remaining_pages}"
            )
        first_offset = zone.advance(len(payloads))
        base = self.geometry.zone_first_page(zone_id)
        pages = [base + first_offset + i for i in range(len(payloads))]
        for page, payload in zip(pages, payloads):
            self.nand.program(page, payload)
        # One batched host write for the whole sequential append.
        self.stats.record_host_write(self.geometry.page_size * len(payloads))
        lat = self.latency.program_many(pages, now_us) if self.latency else 0.0
        return pages, lat

    def read(
        self, page: int, *, now_us: float = 0.0, background: bool = False
    ) -> tuple[Any, float]:
        """Read one physical page; returns ``(payload, latency_us)``.

        ``background`` marks asynchronous engine work (writeback,
        migration scans) that should not stall foreground reads in the
        latency model.  ``NandArray.read``'s checks and the host-read
        accounting are inlined (as :meth:`read_page` inlines the latter):
        this is the closed-loop GET probe's route to flash on FW and Log,
        and Nemo's writeback read.
        """
        nand = self.nand
        if not 0 <= page < nand._num_pages:
            raise AlignmentError(f"page {page} out of range [0, {nand._num_pages})")
        if nand._state[page] != PAGE_PROGRAMMED:
            raise ReadError(f"page {page} is not programmed")
        nand.read_count += 1
        stats = self.stats
        nbytes = self.geometry.page_size
        stats.host_read_bytes += nbytes
        stats.host_read_ops += 1
        stats.flash_read_bytes += nbytes
        latency = self.latency
        if latency is None:
            return nand._payload[page], 0.0
        return nand._payload[page], latency.read(page, now_us, background=background)

    def read_page(self, page: int) -> Any:
        """Latency-free single-page read for engine hot paths.

        Equivalent to ``read(page)[0]`` when no latency model is
        attached; the host-read accounting is inlined because this is
        the single most-called route through the device during replay.
        """
        payload = self.nand.read(page)
        stats = self.stats
        nbytes = self.geometry.page_size
        stats.host_read_bytes += nbytes
        stats.host_read_ops += 1
        stats.flash_read_bytes += nbytes
        return payload

    def read_pages(self, pages: list[int]) -> None:
        """Latency-free batched read for hot paths that discard payloads.

        Counts the same NAND reads and host-read accounting as one
        :meth:`read` per page, batched and without a payload list: for
        callers that resolve membership through in-memory maps (e.g.
        Nemo's PBFG consults and candidate-set probes).  A caller that
        needs timing asks the latency model itself.
        """
        self.nand.read_pages(pages)
        self.stats.record_page_reads(len(pages), self.geometry.page_size)

    def reset_zone(self, zone_id: int, *, now_us: float = 0.0) -> float:
        """Reset (erase) a zone; invalidates all of its pages."""
        zone = self.zones[zone_id]
        if zone.state is ZoneState.EMPTY:
            return 0.0
        self.nand.erase_zone(zone_id)
        zone.reset()
        self.stats.record_erase(self.geometry.blocks_per_zone)
        if self.latency:
            return self.latency.erase(self.geometry.zone_first_page(zone_id), now_us)
        return 0.0

    def finish_zone(self, zone_id: int) -> None:
        """Mark a zone FULL without writing (NVMe Zone Finish)."""
        self.zones[zone_id].finish()

    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """Fraction of device pages currently written."""
        written = sum(z.write_pointer for z in self.zones)
        return written / self.geometry.num_pages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = {s: 0 for s in ZoneState}
        for z in self.zones:
            states[z.state] += 1
        return (
            f"ZNSDevice({self.geometry.describe()}; "
            + ", ".join(f"{k.value}={v}" for k, v in states.items())
            + ")"
        )
