#!/usr/bin/env python3
"""Explore Nemo's design space: measured behaviour vs the paper's models.

Three sweeps, each pairing a simulator measurement with the analytic
model that predicts it:

1. flush threshold (p_th) vs SG fill and WA          — §4.2 / Fig. 18
2. cached-PBFG ratio vs index-pool traffic           — §4.3 / Fig. 19b
3. bloom-filter accuracy vs expected lookup reads    — Appendix A

Run:  python examples/design_space_explorer.py
"""

from repro import merged_twitter_trace, replay
from repro.analysis.pbfg_model import PBFGTradeoff, optimal_false_positive_rate
from repro.analysis.wa_model import nemo_wa
from repro.engines import geometry, make_engine
from repro.harness.report import format_table

#: A 12 MiB device of 1 MiB zones.
NUM_ZONES = 12


def sweep_flush_threshold(trace) -> None:
    print("=== 1. flush threshold (p_th): fill vs WA (cf. Fig. 18) ===")
    rows = []
    for pth in (1, 8, 64, 512):
        cache = make_engine("nemo", geometry(NUM_ZONES), flush_threshold=pth)
        result = replay(cache, trace)
        new_fill = cache.mean_new_fill_rate()
        rows.append(
            [
                pth,
                cache.mean_fill_rate(),
                cache.write_amplification,
                nemo_wa(min(new_fill, 1.0)),  # Eq. 9 prediction
                result.miss_ratio,
            ]
        )
    print(format_table(["p_th", "fill", "WA (measured)", "WA (Eq. 9)", "miss"], rows))
    print()


def sweep_cached_ratio(trace) -> None:
    print("=== 2. cached-PBFG ratio vs index-pool reads (cf. Fig. 19b) ===")
    rows = []
    for ratio in (0.1, 0.5, 1.0):
        cache = make_engine("nemo", geometry(NUM_ZONES), cached_index_ratio=ratio)
        replay(cache, trace)
        rows.append(
            [
                f"{ratio:.0%}",
                cache.pbfg_request_pool_ratio(),
                cache.index_cache.miss_ratio,
            ]
        )
    print(
        format_table(
            ["cached ratio", "requests needing pool", "page-level miss"],
            rows,
            float_fmt="{:.3f}",
        )
    )
    print()


def sweep_filter_accuracy() -> None:
    print("=== 3. filter accuracy vs lookup reads (Appendix A) ===")
    tradeoff = PBFGTradeoff(num_sgs=350, page_size=4096, object_size=246)
    rows = []
    for fp in (0.01, 0.001, 0.0001):
        rows.append(
            [
                f"{fp:.2%}",
                tradeoff.index_pages_discrete(fp),
                tradeoff.object_reads(fp),
                tradeoff.total_reads_discrete(fp),
            ]
        )
    print(format_table(["fp rate", "index pages", "object reads", "total"], rows))
    opt = optimal_false_positive_rate(tradeoff)
    print(
        f"\ncontinuous-model optimum: {opt:.3%} — the paper's deployed"
        " 0.1% sits at the sweet spot."
    )


def main() -> None:
    trace = merged_twitter_trace(num_requests=250_000, wss_scale=1 / 128)
    print(trace.describe(), "\n")
    sweep_flush_threshold(trace)
    sweep_cached_ratio(trace)
    sweep_filter_accuracy()


if __name__ == "__main__":
    main()
