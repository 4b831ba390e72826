"""Nemo configuration (paper Table 3, scaled to the simulator).

The paper's deployment values and their simulator-scale defaults:

=============================  ==================  =====================
Parameter (Table 3)            Paper               Here
=============================  ==================  =====================
Set size                       4 KB                geometry.page_size
Sets per SG                    275,712 (1 zone)    geometry.pages_per_zone
PBFG false positive rate       0.1 %               0.1 %
# SGs : # index groups         50 : 1              16 : 1 (configurable)
# in-memory SGs                2                   :data:`INMEM_SGS`
Flushing threshold (count)     4,096               4,096
Cached PBFG ratio              50 %                50 %
Hotness tracking start         last 30 % of cache  last 30 %
SG cooling period              every 10 % written  every 10 %
=============================  ==================  =====================

Two of the paper's values are constants, not fields: the in-memory SG
count (:data:`INMEM_SGS`) and one SG per zone (the ZN540 mapping).  The
key→set-offset hash seed is :data:`PLACEMENT_SEED`.  The flush threshold is count-based only, as the
paper deploys it (Table 3's footnote: "The flushing threshold is
count-based, not probabilistic").

The three fill-rate techniques of §4.2 are individually toggleable
(``enable_buffered_sgs`` / ``enable_delayed_flush`` /
``enable_writeback``) so the Figure 17 ablation can run every
combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError

#: In-memory SGs in the circle queue (technique ①; Table 3: 2).
INMEM_SGS = 2

#: Seed of the key → intra-SG set offset hash.
PLACEMENT_SEED = 7


@dataclass
class NemoConfig:
    """Tunable parameters of :class:`~repro.core.nemo.NemoCache`."""

    # --- §4.2: preparing a "perfect" SG -------------------------------
    #: Technique ① switch: :data:`INMEM_SGS` queued SGs, off = one.
    enable_buffered_sgs: bool = True
    #: Technique ② switch; off = flush on the first blocked insert.
    enable_delayed_flush: bool = True
    #: Technique ③ switch; off = evicted SGs drop their hot objects.
    enable_writeback: bool = True
    #: Blocked inserts absorbed (by per-set eviction) between flushes.
    flush_threshold: int = 4096

    # --- §4.3: lightweight indexing -----------------------------------
    #: PBFG bloom-filter false-positive rate (Table 3: 0.1 %).
    bf_false_positive_rate: float = 0.001
    #: Objects a set-level filter is sized for (paper: 40 → 72 B filter).
    bf_capacity_per_set: int = 40
    #: SGs covered by one index group (Table 3: 50; smaller pools use
    #: fewer so several groups exist and index-cache dynamics show).
    sgs_per_index_group: int = 16
    #: Fraction of index pages kept in the in-memory index cache.
    cached_index_ratio: float = 0.5

    # --- §4.4: hybrid hotness tracking --------------------------------
    #: Track hotness only for objects in this oldest fraction of the
    #: SG pool (Table 3: last 30 % of cache).
    hotness_window_fraction: float = 0.3
    #: Cooling runs after this fraction of the cache capacity has been
    #: written (Table 3: every 10 %).
    cooling_interval_fraction: float = 0.1

    # --- misc ----------------------------------------------------------
    #: RNG seed for the statistical false-positive model.
    rng_seed: int = 1234

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.flush_threshold < 1:
            raise ConfigError("flush_threshold must be >= 1")
        if not 0.0 < self.bf_false_positive_rate < 1.0:
            raise ConfigError("bf_false_positive_rate must be in (0, 1)")
        if self.bf_capacity_per_set < 1:
            raise ConfigError("bf_capacity_per_set must be >= 1")
        if self.sgs_per_index_group < 1:
            raise ConfigError("sgs_per_index_group must be >= 1")
        if not 0.0 <= self.cached_index_ratio <= 1.0:
            raise ConfigError("cached_index_ratio must be in [0, 1]")
        if not 0.0 <= self.hotness_window_fraction <= 1.0:
            raise ConfigError("hotness_window_fraction must be in [0, 1]")
        if not 0.0 < self.cooling_interval_fraction <= 1.0:
            raise ConfigError("cooling_interval_fraction must be in (0, 1]")

    @property
    def effective_inmem_sgs(self) -> int:
        """Queue depth after the technique-① switch."""
        return INMEM_SGS if self.enable_buffered_sgs else 1

    @classmethod
    def ablation(
        cls,
        *,
        buffered: bool,
        delayed: bool,
        writeback: bool,
        **overrides: Any,
    ) -> "NemoConfig":
        """Config for one cell of the Figure 17 ablation grid."""
        return cls(
            enable_buffered_sgs=buffered,
            enable_delayed_flush=delayed,
            enable_writeback=writeback,
            **overrides,
        )
