"""Command-line replay driver: ``python -m repro``.

Runs any engine against a synthetic Twitter mix (or a real
twitter/cache-trace CSV) on a configurable simulated device and prints
the paper's headline metrics.  Examples::

    python -m repro --engine nemo --requests 300000
    python -m repro --engine fw --zones 24 --requests 500000
    python -m repro --engine all --requests 200000
    python -m repro --engine nemo --trace-csv cluster52.csv --requests 1000000

The ``replay`` subcommand selects the replay kernel and device timing
lanes explicitly; metrics are byte-identical across kernels
(DESIGN.md §5)::

    python -m repro replay --engine log --kernel columnar
    python -m repro replay --engine all --kernel scalar

The ``cluster`` subcommand replays a multi-tenant Zipf mix on a
sharded cache cluster (DESIGN.md §8) across a sweep of shard counts
and prints per-shard scaling plus per-tenant isolation accounting::

    python -m repro cluster --engine nemo --shards 1 2 4 8
    python -m repro cluster --engine log --tenants 4 --quota-mib 8

The ``profile`` subcommand runs one experiment under ``cProfile`` and
prints the hottest call sites, so perf work starts from data::

    python -m repro profile fig12 --scale micro
    python -m repro profile fig15 --scale small --lines 30
"""

from __future__ import annotations

import argparse
import sys

from repro.cluster.factory import ENGINE_NAMES, make_engine
from repro.flash.geometry import FlashGeometry
from repro.harness.report import format_table
from repro.harness.runner import replay
from repro.workloads.mixer import merged_twitter_trace
from repro.workloads.twitter_csv import load_twitter_csv


def build_engine(name: str, geometry: FlashGeometry, args):
    if name == "nemo":
        return make_engine(
            "nemo",
            geometry,
            flush_threshold=args.flush_threshold,
            sgs_per_index_group=args.sgs_per_index_group,
            cached_index_ratio=args.cached_index_ratio,
        )
    return make_engine(name, geometry)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Replay a tiny-object workload against a flash cache.",
    )
    parser.add_argument(
        "--engine",
        default="nemo",
        choices=ENGINE_NAMES + ("all",),
        help="cache engine (or 'all' for the Figure 12a lineup)",
    )
    parser.add_argument("--requests", type=int, default=200_000)
    parser.add_argument("--zones", type=int, default=16, help="device size in 1 MiB zones")
    parser.add_argument(
        "--wss-scale",
        type=float,
        default=1 / 128,
        help="working-set scale vs the production clusters",
    )
    parser.add_argument(
        "--trace-csv",
        default=None,
        help="replay a twitter/cache-trace CSV instead of the synthetic mix",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--flush-threshold", type=int, default=8)
    parser.add_argument("--sgs-per-index-group", type=int, default=4)
    parser.add_argument("--cached-index-ratio", type=float, default=0.5)
    parser.add_argument("--progress", action="store_true")
    return parser


def replay_main(argv: list[str]) -> int:
    """``python -m repro replay``: explicit kernel and latency lanes.

    Selects the replay kernel (``batched``, ``columnar``, ``scalar``)
    and the device timing lane.  Every demotion note the harness emits
    (an engine with no whole-trace kernel, a latency model under
    ``--kernel columnar``) is printed as a ``warning:`` line::

        python -m repro replay --engine log --kernel columnar
        python -m repro replay --engine all --kernel columnar
    """
    from repro.flash.devsim import LATENCY_LANES
    from repro.harness.runner import LATENCY_PERCENTILES, REPLAY_KERNELS

    parser = argparse.ArgumentParser(
        prog="python -m repro replay",
        description="Replay a workload on a chosen kernel lane.",
    )
    parser.add_argument(
        "--engine", default="log", choices=ENGINE_NAMES + ("all",)
    )
    parser.add_argument("--requests", type=int, default=200_000)
    parser.add_argument("--zones", type=int, default=16)
    parser.add_argument("--wss-scale", type=float, default=1 / 128)
    parser.add_argument("--trace-csv", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--kernel",
        default=None,
        choices=REPLAY_KERNELS,
        help="replay kernel lane (default: $REPRO_REPLAY_KERNEL or batched)",
    )
    parser.add_argument(
        "--latency-lane",
        default=None,
        choices=LATENCY_LANES,
        help="device timing lane: analytic (per-channel horizons) or "
        "event (discrete-event devsim); default: no timing model",
    )
    parser.add_argument("--sample-every", type=int, default=None)
    parser.add_argument("--flush-threshold", type=int, default=8)
    parser.add_argument("--sgs-per-index-group", type=int, default=4)
    parser.add_argument("--cached-index-ratio", type=float, default=0.5)
    parser.add_argument("--progress", action="store_true")
    args = parser.parse_args(argv)

    geometry = FlashGeometry(
        page_size=4096,
        pages_per_block=64,
        num_blocks=args.zones * 4,
        blocks_per_zone=4,
    )
    if args.trace_csv:
        trace = load_twitter_csv(args.trace_csv, max_requests=args.requests)
    else:
        trace = merged_twitter_trace(
            num_requests=args.requests, wss_scale=args.wss_scale, seed=args.seed
        )
    print(f"device: {geometry.describe()}")
    print(trace.describe())

    names = list(ENGINE_NAMES) if args.engine == "all" else [args.engine]
    rows = []
    for name in names:
        engine = build_engine(name, geometry, args)
        result = replay(
            engine,
            trace,
            sample_every=args.sample_every,
            kernel=args.kernel,
            latency_lane=args.latency_lane,
            record_latency=args.latency_lane is not None,
            progress=args.progress,
        )
        for note in result.notes:
            print(f"warning: {engine.name}: {note}")
        if result.latency_lane is not None and len(result.latency):
            p = result.latency.percentiles(LATENCY_PERCENTILES)
            print(
                f"latency[{result.latency_lane}] {engine.name}: "
                + " ".join(
                    f"p{q:g}={p[q]:.0f}us" for q in LATENCY_PERCENTILES
                )
            )
        rows.append(
            [
                engine.name,
                result.kernel,
                result.final.get("wa", float("nan")),
                result.miss_ratio,
                f"{result.num_requests / max(result.wall_seconds, 1e-9) / 1e6:.2f}M",
                f"{result.wall_seconds:.1f}s",
            ]
        )
    print()
    print(
        format_table(
            ["engine", "kernel", "WA", "miss", "req/s", "wall"], rows
        )
    )
    return 0


def cluster_main(argv: list[str]) -> int:
    """``python -m repro cluster``: sharded multi-tenant cluster sweep.

    Generates a tenant-interleaved Zipf mix, replays it on a cluster of
    N independent shards for each requested shard count, and prints the
    shard-scaling table (WA, miss ratio, critical-path capacity) plus a
    per-tenant isolation table (miss ratio, attributed WA, admitted
    bytes, quota rejects, and — unless ``--no-solo`` — interference
    deltas against a solo-run reference)::

        python -m repro cluster --engine nemo --shards 1 2 4 8
        python -m repro cluster --engine log --tenants 4 --quota-mib 8
    """
    from repro.cluster import CacheCluster, ClusterConfig
    from repro.workloads.multitenant import (
        TenantSpec,
        multi_tenant_trace,
        tenant_quotas,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro cluster",
        description="Replay a multi-tenant mix on a sharded cache "
        "cluster and report scaling plus per-tenant isolation.",
    )
    parser.add_argument("--engine", default="nemo", choices=ENGINE_NAMES)
    parser.add_argument(
        "--shards",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="shard counts to sweep",
    )
    parser.add_argument("--requests", type=int, default=100_000)
    parser.add_argument(
        "--zones-per-shard",
        type=int,
        default=8,
        help="device size per shard in 1 MiB zones",
    )
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument(
        "--skew",
        type=float,
        nargs="+",
        default=None,
        help="per-tenant Zipf alpha, cycled over tenants "
        "(default: 0.9 + 0.15 * tenant index)",
    )
    parser.add_argument(
        "--keys-per-tenant", type=int, default=5_000, dest="keys_per_tenant"
    )
    parser.add_argument(
        "--quota-mib",
        type=float,
        default=None,
        help="per-tenant admitted-byte write budget in MiB "
        "(default: unlimited)",
    )
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--no-solo",
        action="store_true",
        help="skip the per-tenant solo-run interference references",
    )
    args = parser.parse_args(argv)
    if args.tenants < 1:
        parser.error("--tenants must be >= 1")
    if any(n < 1 for n in args.shards):
        parser.error("--shards values must be >= 1")

    specs = [
        TenantSpec(
            name=f"t{i + 1}",
            zipf_alpha=(
                args.skew[i % len(args.skew)]
                if args.skew
                else 0.9 + 0.15 * i
            ),
            num_keys=args.keys_per_tenant,
            quota_bytes=(
                int(args.quota_mib * 2**20)
                if args.quota_mib is not None
                else None
            ),
        )
        for i in range(args.tenants)
    ]
    trace = multi_tenant_trace(
        specs, num_requests=args.requests, seed=args.seed
    )
    print(trace.describe())
    print(
        "tenants: "
        + ", ".join(f"{s.name}(alpha={s.zipf_alpha:.2f})" for s in specs)
    )

    sweep_rows = []
    result = None
    for num_shards in args.shards:
        config = ClusterConfig(
            num_shards=num_shards,
            engine=args.engine,
            zones_per_shard=args.zones_per_shard,
            seed=args.seed,
            quotas=tenant_quotas(specs),
        )
        cluster = CacheCluster(config)
        if args.no_solo:
            result = cluster.replay(trace, jobs=args.jobs)
        else:
            result = cluster.replay_with_isolation(trace, jobs=args.jobs)
        sweep_rows.append(
            [
                num_shards,
                result.wa,
                result.miss_ratio,
                f"{result.capacity_requests_per_sec / 1e6:.2f}M",
                f"{result.wall_seconds:.1f}s",
            ]
        )
    print()
    print(
        format_table(
            ["shards", "WA", "miss", "capacity req/s", "wall"], sweep_rows
        )
    )

    # Per-tenant isolation table for the last (largest) shard count.
    assert result is not None
    names_by_id = {
        tid: tname for tname, tid in trace.meta["tenants"].items()
    }
    tenant_rows = []
    for tid, roll in result.tenants.items():
        interference = roll.interference
        tenant_rows.append(
            [
                names_by_id.get(tid, str(tid)),
                roll.account.lookups,
                roll.miss_ratio,
                roll.write_amplification,
                roll.account.insert_bytes / 2**20,
                roll.account.rejected_inserts,
                (
                    interference.delta_miss_ratio
                    if interference is not None
                    else float("nan")
                ),
                (
                    interference.delta_write_amplification
                    if interference is not None
                    else float("nan")
                ),
            ]
        )
    print()
    print(f"per-tenant isolation at {result.num_shards} shard(s):")
    print(
        format_table(
            [
                "tenant", "lookups", "miss", "WA", "MiB in",
                "rejects", "d-miss", "d-WA",
            ],
            tenant_rows,
        )
    )
    return 0


def profile_main(argv: list[str]) -> int:
    """``python -m repro profile <experiment>``: cProfile one cell."""
    import cProfile
    import pstats

    from repro.experiments.registry import EXPERIMENTS, run_experiment

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Run one experiment under cProfile and print the "
        "top cumulative-time entries.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "--scale", choices=["micro", "small", "full"], default="micro"
    )
    parser.add_argument(
        "--lines", type=int, default=20, help="profile rows to print"
    )
    args = parser.parse_args(argv)

    profiler = cProfile.Profile()
    profiler.enable()
    run_experiment(args.experiment, scale=args.scale, jobs=1)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(args.lines)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "replay":
        return replay_main(argv[1:])
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "cluster":
        return cluster_main(argv[1:])
    args = make_parser().parse_args(argv)
    geometry = FlashGeometry(
        page_size=4096,
        pages_per_block=64,
        num_blocks=args.zones * 4,
        blocks_per_zone=4,
    )
    if args.trace_csv:
        trace = load_twitter_csv(args.trace_csv, max_requests=args.requests)
    else:
        trace = merged_twitter_trace(
            num_requests=args.requests, wss_scale=args.wss_scale, seed=args.seed
        )
    print(f"device: {geometry.describe()}")
    print(trace.describe())

    names = list(ENGINE_NAMES) if args.engine == "all" else [args.engine]
    rows = []
    for name in names:
        engine = build_engine(name, geometry, args)
        result = replay(engine, trace, progress=args.progress)
        rows.append(
            [
                engine.name,
                engine.write_amplification,
                result.miss_ratio,
                engine.memory_overhead_bits_per_object(),
                engine.stats.host_write_bytes / 2**20,
                f"{result.wall_seconds:.1f}s",
            ]
        )
    print()
    print(
        format_table(
            ["engine", "WA", "miss", "mem b/obj", "flash MiB", "wall"], rows
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
