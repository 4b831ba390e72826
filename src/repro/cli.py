"""Command-line replay driver: ``python -m repro``.

Runs any engine against a synthetic Twitter mix (or a real
twitter/cache-trace CSV) on a configurable simulated device and prints
one table of the paper's headline metrics.  ``--kernel`` selects the
replay kernel; metrics are byte-identical across kernels (DESIGN.md
§5).  ``--latency-lane`` installs a fresh device timing model of that
lane on each engine before its replay and adds one ``latency[...]``
percentile line per engine.  Examples::

    python -m repro --engine nemo --requests 300000
    python -m repro --engine fw --zones 24 --requests 500000
    python -m repro --engine all --requests 200000
    python -m repro --engine nemo --trace-csv cluster52.csv --requests 1000000
    python -m repro --engine log --kernel columnar
    python -m repro --engine all --latency-lane event

A leading ``replay`` word is accepted and ignored
(``python -m repro replay --engine log`` is the same command).

The ``profile`` subcommand runs one experiment under ``cProfile`` and
prints the hottest call sites, so perf work starts from data::

    python -m repro profile fig12 --scale micro
    python -m repro profile fig15 --scale small --lines 30
"""

from __future__ import annotations

import argparse
import sys

from repro.engines import ENGINE_NAMES, make_engine
from repro.flash.devsim import LATENCY_LANES, make_latency_model
from repro.flash.geometry import FlashGeometry
from repro.harness.report import format_table
from repro.harness.runner import LATENCY_PERCENTILES, REPLAY_KERNELS, replay
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
    return parser


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
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "replay":
        argv = argv[1:]
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
        if args.latency_lane is not None:
            # Before replay: a latency model demotes the columnar
            # kernels, and the demotion shows in ``result.notes``.
            engine.install_latency_model(make_latency_model(args.latency_lane))
        result = replay(
            engine,
            trace,
            sample_every=args.sample_every,
            kernel=args.kernel,
            record_latency=args.latency_lane is not None,
            progress=args.progress,
        )
        # Every demotion the harness makes (no whole-trace kernel for
        # this engine, a latency model under --kernel columnar) is shown.
        for note in result.notes:
            print(f"warning: {engine.name}: {note}")
        if args.latency_lane is not None and len(result.latency):
            p = result.latency.percentiles(LATENCY_PERCENTILES)
            print(
                f"latency[{args.latency_lane}] {engine.name}: "
                + " ".join(
                    f"p{q:g}={p[q]:.0f}us" for q in LATENCY_PERCENTILES
                )
            )
        rows.append(
            [
                engine.name,
                result.kernel,
                engine.write_amplification,
                result.miss_ratio,
                engine.memory_overhead_bits_per_object(),
                engine.stats.host_write_bytes / 2**20,
                f"{result.num_requests / max(result.wall_seconds, 1e-9) / 1e6:.2f}M",
                f"{result.wall_seconds:.1f}s",
            ]
        )
    print()
    print(
        format_table(
            ["engine", "kernel", "WA", "miss", "mem b/obj", "flash MiB",
             "req/s", "wall"],
            rows,
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
