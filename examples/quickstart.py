#!/usr/bin/env python3
"""Quickstart: run Nemo on a simulated ZNS device.

Builds a MiB-scale zoned flash device, replays a synthetic Twitter-like
workload (paper Table 5) against the Nemo cache, and prints the three
headline flash-cache metrics the paper optimises jointly: write
amplification, memory overhead, and miss ratio.

Run:  python examples/quickstart.py
"""

from repro import merged_twitter_trace, replay
from repro.engines import geometry, make_engine


def main() -> None:
    # A 10 MiB zoned device with 1 MiB zones; each zone hosts one
    # Set-Group of 256 four-KiB sets.  Deliberately smaller than the
    # workload's working set, so eviction and writeback engage.
    device = geometry(10)
    print(f"device: {device.describe()}")

    # Nemo with its three fill techniques on (Table 3, scaled).
    cache = make_engine("nemo", device)

    # The paper's merged Twitter workload, scaled to the device.
    trace = merged_twitter_trace(num_requests=300_000, wss_scale=1 / 256)
    print(trace.describe())

    result = replay(cache, trace)
    print()
    print(result.summary())
    print()
    print(f"write amplification : {cache.write_amplification:6.2f}   (paper: 1.56)")
    print(f"mean SG fill rate   : {cache.mean_fill_rate():6.1%}   (paper: 89.3%)")
    print(
        f"memory overhead     : {cache.memory_overhead_bits_per_object():6.1f}"
        "   bits/object (paper: 8.3 at 2 TB scale)"
    )
    print(f"miss ratio          : {result.miss_ratio:6.1%}")
    print(f"flash SGs in pool   : {len(cache.pool)}/{cache.pool_capacity_sgs}")
    print(f"objects written back: {cache.writeback_objects}")


if __name__ == "__main__":
    main()
