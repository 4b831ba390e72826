"""Conventional block-interface SSD: an FTL wrapped as a device.

The paper's Set baseline runs on a conventional SSD with 50 %
over-provisioning (Table 4: 200 GB OP on 360 GB flash, "Meta adopts 50 %
OP in production"), and Kangaroo's HSet runs on a conventional device
with 5 % OP whose garbage collection is independent of the cache (Case
3.1).  :class:`ConventionalSSD` exposes an LBA read/write interface and
reports the DLWA that emerges from its internal GC.
"""

from __future__ import annotations

from typing import Any

from repro.flash.ftl import PageMapFTL
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel
from repro.flash.stats import FlashStats


class ConventionalSSD:
    """Block-interface SSD backed by :class:`PageMapFTL`.

    The host sees ``num_lbas`` logical 4 KiB blocks; the device performs
    out-of-place writes and GC internally.  DLWA is available from
    ``stats.dlwa``.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        *,
        op_ratio: float = 0.07,
        stats: FlashStats | None = None,
        latency: LatencyModel | None = None,
    ) -> None:
        self.geometry = geometry
        self.stats = stats if stats is not None else FlashStats()
        self.ftl = PageMapFTL(
            geometry,
            op_ratio=op_ratio,
            stats=self.stats,
            latency=latency,
        )

    @property
    def latency(self) -> LatencyModel | None:
        """The FTL's latency model (settable: lane swaps forward here)."""
        return self.ftl.latency

    @latency.setter
    def latency(self, model: LatencyModel | None) -> None:
        self.ftl.latency = model

    @property
    def num_lbas(self) -> int:
        """Host-visible logical blocks (each one flash page)."""
        return self.ftl.num_lbas

    def write(self, lba: int, payload: Any, *, now_us: float = 0.0) -> float:
        """Overwrite logical block ``lba``; returns latency µs."""
        return self.ftl.write(lba, payload, now_us=now_us)

    def read(self, lba: int, *, now_us: float = 0.0) -> tuple[Any, float]:
        """Read logical block ``lba``; returns ``(payload, latency_us)``."""
        return self.ftl.read(lba, now_us=now_us)

    def is_mapped(self, lba: int) -> bool:
        return self.ftl.is_mapped(lba)

    def trim(self, lba: int) -> None:
        self.ftl.trim(lba)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConventionalSSD(op={self.ftl.op_ratio:.0%}, "
            f"lbas={self.num_lbas}, dlwa={self.stats.dlwa:.3f})"
        )
