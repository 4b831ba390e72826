#!/usr/bin/env python3
"""Bring your own workload: a TikTok-comments-style cache scenario.

The paper motivates tiny-object caching with services like TikTok
(≈575 M new comments/day, ≤200 B each) and Twitter (≤280 B tweets).
This example builds a synthetic "comments" workload from first
principles — a custom cluster spec with its own sizes and skew — and
compares Nemo against FairyWREN on it, demonstrating that the public
API composes beyond the four bundled Table 5 clusters.

Run:  python examples/custom_workload.py
"""

from repro import replay
from repro.engines import geometry, make_engine
from repro.harness.report import format_table
from repro.workloads.mixer import proportional_interleave
from repro.workloads.twitter import TwitterClusterSpec, generate_cluster_trace


def build_workload():
    """Two custom tenant clusters sharing one cache (disjoint keys)."""
    comments = TwitterClusterSpec(
        name="comments",
        key_size=24,
        value_size=180,  # ≤200 B comments
        wss_mb=9000.0,
        zipf_alpha=1.25,  # viral skew
    )
    profiles = TwitterClusterSpec(
        name="profiles",
        key_size=16,
        value_size=420,
        wss_mb=6000.0,
        zipf_alpha=1.05,
    )
    t1 = generate_cluster_trace(
        comments, num_requests=120_000, wss_scale=1 / 512, seed=1
    )
    t2 = generate_cluster_trace(
        profiles,
        num_requests=80_000,
        wss_scale=1 / 512,
        seed=2,
        key_base=t1.num_keys,
    )
    return proportional_interleave([t1, t2], name="comments+profiles")


def main() -> None:
    trace = build_workload()
    print(trace.describe())
    device = geometry(12)
    engines = [make_engine(name, device) for name in ("nemo", "fw")]
    rows = []
    for engine in engines:
        result = replay(engine, trace)
        rows.append(
            [
                engine.name,
                engine.write_amplification,
                result.miss_ratio,
                engine.stats.host_write_bytes / 2**20,
                engine.memory_overhead_bits_per_object(),
            ]
        )
    print()
    print(
        format_table(
            ["engine", "WA", "miss", "flash written (MiB)", "mem b/obj"], rows
        )
    )
    flash_saved = 1.0 - rows[0][3] / rows[1][3]
    print(f"\nNemo writes {flash_saved:.0%} less flash than FairyWREN here.")


if __name__ == "__main__":
    main()
