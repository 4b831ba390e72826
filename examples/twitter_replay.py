#!/usr/bin/env python3
"""The paper's headline comparison: five engines over the Twitter mix.

Replays the merged Twitter workload (§5.1) against Log, Set, FairyWREN,
Kangaroo, and Nemo — each under its Table 4 configuration — and prints
a Figure-12a-style comparison of write amplification, miss ratio,
memory overhead, and read amplification.

Run:  python examples/twitter_replay.py [--requests N] [--zones Z]
"""

import argparse

from repro import merged_twitter_trace, replay
from repro.engines import geometry, make_engine
from repro.harness.report import format_table

PAPER_WA = {"Log": 1.08, "Set": 16.31, "FW": 15.2, "KG": 55.59, "Nemo": 1.56}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=300_000)
    parser.add_argument("--zones", type=int, default=16, help="1 MiB zones")
    args = parser.parse_args()

    device = geometry(args.zones)
    trace = merged_twitter_trace(num_requests=args.requests, wss_scale=1 / 128)
    print(f"device: {device.describe()}")
    print(trace.describe())
    print()

    # Table 4 configurations are make_engine's defaults.
    engines = [
        make_engine(name, device) for name in ("log", "set", "fw", "kg", "nemo")
    ]

    rows = []
    for engine in engines:
        print(f"replaying {engine.name} ...")
        result = replay(engine, trace)
        rows.append(
            [
                engine.name,
                engine.write_amplification,
                PAPER_WA[engine.name],
                result.miss_ratio,
                engine.memory_overhead_bits_per_object(),
                engine.stats.read_amplification,
            ]
        )

    print()
    print(
        format_table(
            ["engine", "WA", "paper WA", "miss", "mem b/obj", "read amp"], rows
        )
    )
    print(
        "\nShape check: Nemo ~ Log << FW < KG, Set ~ page/object — the"
        " paper's Figure 12a ordering."
    )


if __name__ == "__main__":
    main()
