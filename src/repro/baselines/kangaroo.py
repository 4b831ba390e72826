"""Kangaroo (McAllister et al., SOSP '21) — hierarchical cache, Case 3.1.

Kangaroo pairs a small flash log (KLog ≈ HLog) with a large
set-associative region (KSet ≈ HSet).  Its distinguishing property in
the paper's analysis (§3) is that garbage collection and log-to-set
migration are **independent**: GC relocates valid sets verbatim, so the
overall write amplification is the *product* of migration WA and GC
overhead — "causing the overall WA to increase multiplicatively" to the
measured 55.59×.  It also lacks FairyWREN's hot/cold division, so its
migration hash range is the full usable set count (twice FairyWREN's),
doubling L2SWA(P).
"""

from __future__ import annotations

from repro.baselines.hierarchical import HierarchicalCacheBase
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel


class KangarooCache(HierarchicalCacheBase):
    """Kangaroo: hierarchical cache with independent GC (Case 3.1)."""

    name = "KG"

    def __init__(
        self,
        geometry: FlashGeometry,
        *,
        log_fraction: float = 0.05,
        op_ratio: float = 0.05,
        latency: LatencyModel | None = None,
    ) -> None:
        super().__init__(
            geometry,
            log_fraction=log_fraction,
            op_ratio=op_ratio,
            hot_cold=False,
            merge_on_gc=False,
            latency=latency,
        )
