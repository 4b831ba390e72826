"""Figure 19 — intra-SG offset skew and PBFG retrieval (§5.4).

(a) Cumulative access share of hashed intra-SG offsets ("sets") per
Twitter cluster: hashing dilutes per-key skew, but the set-access
distribution stays skewed — the paper finds ≈70 % of accesses landing
on the top 30 % of sets, which is what makes on-demand PBFG caching
work.

(b) Fraction of requests that must fetch a PBFG page from the on-flash
index pool, swept over the cached-PBFG ratio.  Paper: <15 % at every
ratio, <8 % at the deployed 50 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import PLACEMENT_SEED, NemoConfig
from repro.experiments.common import scale_params
from repro.experiments.systems import nemo_system, system_cell
from repro.harness.parallel import Cell
from repro.harness.report import format_table
from repro.hashing import splitmix64_array
from repro.workloads.twitter import TWITTER_CLUSTERS, generate_cluster_trace

CACHED_RATIOS = [0.1, 0.25, 0.5, 0.75, 1.0]


@dataclass
class Fig19Result:
    #: cluster -> access share of the hottest 30 % of sets.
    top30_share: dict[str, float] = field(default_factory=dict)
    #: cached ratio -> fraction of requests hitting the index pool.
    pool_ratio: dict[float, float] = field(default_factory=dict)

    def format(self) -> str:
        a = format_table(
            ["cluster", "top-30% set access share"],
            [[name, share] for name, share in self.top30_share.items()],
            float_fmt="{:.3f}",
        )
        b = format_table(
            ["cached PBFG ratio", "requests needing index pool"],
            [[f"{ratio:.0%}", frac] for ratio, frac in self.pool_ratio.items()],
            float_fmt="{:.3f}",
        )
        return (
            "Figure 19a: set-access distribution after hashing\n"
            + a
            + "\n\nFigure 19b: PBFG retrievals from the index pool\n"
            + b
        )


def set_access_top_share(
    keys: np.ndarray, num_offsets: int, top_fraction: float = 0.3
) -> float:
    """Access share captured by the hottest ``top_fraction`` of
    ``num_offsets`` sets, under Nemo's key → set-offset hash."""
    offsets = (
        splitmix64_array(keys, seed=PLACEMENT_SEED) % np.uint64(num_offsets)
    ).astype(np.int64)
    counts = np.bincount(offsets, minlength=num_offsets)
    counts.sort()
    top = counts[-max(1, int(round(top_fraction * num_offsets))) :]
    return float(top.sum() / counts.sum())


def _cluster_cell(scale: str, name: str) -> dict:
    """(a) hashed-offset skew of one Twitter cluster."""
    geometry, num_requests = scale_params(scale)
    per_cluster = max(50_000, num_requests // 4)
    t = generate_cluster_trace(name, num_requests=per_cluster, seed=11)
    # One SG per zone, one set per page: Nemo's sets per SG.
    share = set_access_top_share(t.keys, geometry.pages_per_zone)
    return {"cluster": name, "share": share}


def cells(scale: str) -> list[Cell]:
    return [
        Cell(f"fig19a/{name}", _cluster_cell, (scale, name))
        for name in sorted(TWITTER_CLUSTERS)
    ] + [
        system_cell(nemo_system(scale, NemoConfig(cached_index_ratio=ratio)))
        for ratio in CACHED_RATIOS
    ]


def assemble(payloads: list) -> Fig19Result:
    result = Fig19Result()
    for p in payloads[: len(TWITTER_CLUSTERS)]:
        result.top30_share[p["cluster"]] = p["share"]
    for ratio, rec in zip(CACHED_RATIOS, payloads[len(TWITTER_CLUSTERS) :]):
        result.pool_ratio[ratio] = rec.extras["pbfg_pool_ratio"]
    return result
