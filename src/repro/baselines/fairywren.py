"""FairyWREN (McAllister et al., OSDI '24) — hierarchical cache, Case 3.2.

FairyWREN is the paper's state-of-the-art comparison point: it merges
garbage collection with log-to-set migration through a host FTL (when a
zone is reclaimed, each valid set is rewritten together with its pending
HLog bucket — **active migration**), and divides sets into hot and cold
halves so that migration targets only the cold half (hash range
½·N'_set, Eq. 5).

The paper's §3 analysis, reproduced by this implementation and validated
in ``experiments/fig04–fig06``:

- L2SWA(P) = (1−X)·N_Set / (2·N_Log)  (Eq. 6) — ≈9 at Log5/OP5;
- L2SWA(A) ≈ 2 × L2SWA(P) (shorter log residence, §3.2.2);
- overall L2SWA = (2−p)·L2SWA(P) (Eq. 8), with p ≈ 25 % at 5 % OP;
- total WA ≈ 15.2× on the merged Twitter workload despite the merged GC.
"""

from __future__ import annotations

from repro.baselines.hierarchical import HierarchicalCacheBase
from repro.flash.geometry import FlashGeometry
from repro.flash.latency import LatencyModel


class FairyWrenCache(HierarchicalCacheBase):
    """FairyWREN: hierarchical cache with GC-merged migration (Case 3.2)."""

    name = "FW"

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
            hot_cold=True,
            merge_on_gc=True,
            latency=latency,
        )
