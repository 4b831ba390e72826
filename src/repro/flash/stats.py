"""Write/read accounting and amplification metrics.

The paper evaluates three amplification metrics (§2.2):

- **ALWA** (application-level write amplification): bytes the cache engine
  writes to the device divided by the bytes of *new user objects* it was
  asked to store.  The engine owns the "logical bytes" notion — e.g. Nemo
  does **not** count written-back hot objects as logical writes (§5.2) —
  so engines report logical bytes into :meth:`FlashStats.record_logical`.
- **DLWA** (device-level write amplification): bytes physically programmed
  to NAND divided by bytes the host wrote to the device.  For ZNS devices
  this is 1 by construction; for conventional devices GC relocation adds
  flash writes.
- **Read amplification**: flash bytes read per logical lookup byte.

:class:`FlashStats` is deliberately dumb — monotonic counters plus derived
ratios — so that every engine and device shares one auditable definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FlashStats:
    """Monotonic byte/op counters for one device (and its host engine).

    Engines record logical traffic; devices record host and flash traffic.
    All byte counters only ever increase.
    """

    # Engine-side (logical) traffic.
    logical_write_bytes: int = 0
    logical_read_bytes: int = 0

    # Host → device traffic (what the engine issued).
    host_write_bytes: int = 0
    host_read_bytes: int = 0

    # Device-internal NAND traffic (includes GC relocation).
    flash_write_bytes: int = 0
    flash_read_bytes: int = 0

    # Operation counts.
    host_write_ops: int = 0
    host_read_ops: int = 0
    erase_ops: int = 0
    gc_runs: int = 0
    gc_relocated_pages: int = 0

    # Optional time series support: (timestamp, host_write_bytes) samples
    # appended by the harness, kept here so one object travels with the
    # device.
    write_samples: list[tuple[float, int]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_logical(self, nbytes: int) -> None:
        """Record ``nbytes`` of new user data accepted by the engine."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.logical_write_bytes += nbytes

    def record_host_write(
        self, nbytes: int, *, also_flash: bool = True, ops: int = 1
    ) -> None:
        """Record a host write of ``nbytes`` issued to the device.

        ``also_flash`` mirrors the bytes into the flash counter, which is
        correct for devices with no internal relocation (ZNS).  FTL-backed
        devices pass ``also_flash=False`` and account flash bytes
        themselves (host bytes + GC bytes).  A batched multi-page write
        (zone append of a whole SG) is one host op: pass ``ops=1`` with
        the batch's total bytes — mean-request-size telemetry (Fig. 13's
        "batched writes vs set-level requests") relies on it.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.host_write_bytes += nbytes
        self.host_write_ops += ops
        if also_flash:
            self.flash_write_bytes += nbytes

    def record_host_read(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.host_read_bytes += nbytes
        self.host_read_ops += 1
        self.flash_read_bytes += nbytes

    def record_page_reads(self, n: int, page_size: int) -> None:
        """Record ``n`` host page reads of ``page_size`` bytes each (one
        op per page): the batched form of :meth:`record_host_read`."""
        nbytes = page_size * n
        self.host_read_bytes += nbytes
        self.host_read_ops += n
        self.flash_read_bytes += nbytes

    def record_gc(self, relocated_pages: int, page_size: int) -> None:
        """Record one GC run that relocated ``relocated_pages`` pages."""
        if relocated_pages < 0:
            raise ValueError("relocated_pages must be non-negative")
        self.gc_runs += 1
        self.gc_relocated_pages += relocated_pages
        self.flash_write_bytes += relocated_pages * page_size
        self.flash_read_bytes += relocated_pages * page_size

    def record_erase(self, count: int = 1) -> None:
        self.erase_ops += count

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def alwa(self) -> float:
        """Application-level WA: host writes / logical writes.

        Returns ``float('nan')`` before any logical write.
        """
        if self.logical_write_bytes == 0:
            return float("nan")
        return self.host_write_bytes / self.logical_write_bytes

    @property
    def dlwa(self) -> float:
        """Device-level WA: flash writes / host writes."""
        if self.host_write_bytes == 0:
            return float("nan")
        return self.flash_write_bytes / self.host_write_bytes

    @property
    def total_wa(self) -> float:
        """End-to-end WA: flash writes / logical writes."""
        if self.logical_write_bytes == 0:
            return float("nan")
        return self.flash_write_bytes / self.logical_write_bytes

    @property
    def read_amplification(self) -> float:
        """Flash bytes read per logical byte read."""
        if self.logical_read_bytes == 0:
            return float("nan")
        return self.flash_read_bytes / self.logical_read_bytes

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Plain-dict snapshot for metric sampling."""
        return {
            "logical_write_bytes": self.logical_write_bytes,
            "logical_read_bytes": self.logical_read_bytes,
            "host_write_bytes": self.host_write_bytes,
            "host_read_bytes": self.host_read_bytes,
            "flash_write_bytes": self.flash_write_bytes,
            "flash_read_bytes": self.flash_read_bytes,
            "host_write_ops": self.host_write_ops,
            "host_read_ops": self.host_read_ops,
            "erase_ops": self.erase_ops,
            "gc_runs": self.gc_runs,
            "gc_relocated_pages": self.gc_relocated_pages,
            "alwa": self.alwa,
            "dlwa": self.dlwa,
            "total_wa": self.total_wa,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlashStats(alwa={self.alwa:.3f}, dlwa={self.dlwa:.3f}, "
            f"host={self.host_write_bytes}B, flash={self.flash_write_bytes}B, "
            f"logical={self.logical_write_bytes}B)"
        )
