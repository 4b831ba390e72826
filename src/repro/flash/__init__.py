"""Flash-device substrate: simulated NAND devices the caches run on.

The paper evaluates on a real Western Digital ZN540 ZNS SSD (Nemo,
FairyWREN, Log) and on a conventional block-interface SSD (Kangaroo, Set).
This subpackage provides discrete simulators for both device classes:

- :class:`~repro.flash.zns.ZNSDevice` — zoned namespace device with
  sequential-write-required zones, zone append, and explicit reset.
  Device-level write amplification is 1 by construction.
- :class:`~repro.flash.ftl.PageMapFTL` — block-interface (conventional)
  device: a page-mapping FTL with greedy garbage collection and
  configurable over-provisioning, so device-level write amplification
  emerges from GC exactly as in the paper's Case 3.1 analysis.

Both devices share :class:`~repro.flash.stats.FlashStats` accounting
(host writes, flash writes, reads, erases → ALWA / DLWA / read
amplification) and an optional :class:`~repro.flash.latency.LatencyModel`
that models per-channel service times and read/program interference —
the mechanism behind the paper's Figure 15 latency results.

The two devices are the only writers of NAND page state, zone state and
the host/flash traffic counters of :class:`~repro.flash.stats.FlashStats`;
engines reach them through device methods (bulk GET loops flush their
deferred read counts through ``record_reads``).
"""

from repro.flash.geometry import FlashGeometry
from repro.flash.stats import FlashStats
from repro.flash.latency import LatencyModel, NandTimings
from repro.flash.device import NandArray
from repro.flash.zone import Zone, ZoneState
from repro.flash.zns import ZNSDevice
from repro.flash.ftl import PageMapFTL

__all__ = [
    "FlashGeometry",
    "FlashStats",
    "LatencyModel",
    "NandTimings",
    "NandArray",
    "Zone",
    "ZoneState",
    "ZNSDevice",
    "PageMapFTL",
]
