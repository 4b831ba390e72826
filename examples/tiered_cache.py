#!/usr/bin/env python3
"""DRAM + flash tiering.

CacheLib deployments (the paper's context) always pair a DRAM cache
with the flash cache: DRAM absorbs the hottest traffic and its LRU
victims become flash admissions.  This example runs the same workload
through DRAM+Nemo and DRAM+FairyWREN and shows the end-to-end miss
ratio, the DRAM hit ratio and the flash-tier metrics the paper reports
(WA, flash writes).

Run:  python examples/tiered_cache.py
"""

from repro import replay
from repro.baselines.dram import DramCache, TieredCache
from repro.engines import geometry, make_engine
from repro.harness.report import format_table
from repro.workloads.mixer import merged_twitter_trace


def main() -> None:
    device = geometry(12)
    trace = merged_twitter_trace(num_requests=250_000, wss_scale=1 / 128)
    print(trace.describe())
    dram_bytes = 1 << 20  # 1 MiB DRAM tier (~8 % of flash)

    tiers = [
        TieredCache(DramCache(dram_bytes), make_engine(name, device))
        for name in ("nemo", "fw")
    ]

    rows = []
    for tier in tiers:
        result = replay(tier, trace)
        rows.append(
            [
                tier.name,
                result.miss_ratio,
                tier.dram.hit_ratio,
                tier.write_amplification,
                tier.flash.stats.host_write_bytes / 2**20,
            ]
        )
    print()
    print(
        format_table(
            ["tier", "e2e miss", "DRAM hit", "flash WA", "flash MiB written"],
            rows,
        )
    )


if __name__ == "__main__":
    main()
