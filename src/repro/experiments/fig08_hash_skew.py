"""Figure 8 — short-term hashed-key distribution skew (§4.1, C1).

Populates empty SGs of varying sizes from (a) the merged Twitter trace
and (b) the paper's synthetic workload (normal sizes, mean 250 B,
std 200 B), and records the fill of the *remaining* sets at the moment
the first set fills, for 4 KiB and 8 KiB sets.

Paper reference: below 25 % for 4 KiB sets "regardless of the workload",
rarely above 40 % even at 8 KiB; bigger SGs skew worse.  The analytic
balls-into-bins model (``analysis.fill_model``) is evaluated alongside —
at the paper's 275,712-set SGs it predicts ≈24 % for 16-object sets,
matching Figure 8, and it quantifies how much milder the skew is at the
simulator's smaller set counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.fill_model import (
    expected_fill_when_first_set_full,
    fill_at_first_full_simulated,
)
from repro.harness.report import format_table
from repro.hashing import splitmix64_array
from repro.workloads.mixer import merged_twitter_trace
from repro.workloads.sizes import NormalSizeModel
from repro.workloads.trace import Trace

#: Sets per SG to probe (the paper probes SG bytes; sets = bytes/4 KiB).
SET_COUNTS = [256, 1024, 4096, 16384]
SET_SIZES = [4096, 8192]


@dataclass
class Fig08Result:
    rows: list[dict] = field(default_factory=list)

    def format(self) -> str:
        table = format_table(
            ["workload", "sets/SG", "set size", "remaining fill", "model fill"],
            [
                [
                    r["workload"],
                    r["num_sets"],
                    r["set_size"],
                    r["remaining_fill"],
                    r["model_fill"],
                ]
                for r in self.rows
            ],
            float_fmt="{:.3f}",
        )
        return "Figure 8: fill of remaining sets when the first set fills\n" + table


def _twitter_stream(
    n: int, trace: Trace, first_seen: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Deduplicate request keys: an SG stores one copy per key, so the
    # population stream is first-occurrence keys only.  Zipf reuse means
    # ~8 requests per fresh key, hence the oversized trace: a prefix of
    # the run's longest one (a merged trace of 4k requests is a prefix
    # of every longer one), whose first occurrences are the longest
    # prefix's ``first_seen`` positions below its length.
    prefix = max(8 * n, 200_000)
    order = first_seen[: np.searchsorted(first_seen, prefix)][:n]
    return trace.keys[order], trace.sizes[order]


def _synthetic_stream(n: int, seed: int = 3) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**62, size=n, dtype=np.int64)
    sizes = NormalSizeModel(250.0, 200.0).build_table(n, rng)
    return keys, sizes


def run(scale: str = "small") -> Fig08Result:
    result = Fig08Result()
    set_counts = SET_COUNTS if scale == "full" else SET_COUNTS[:2]
    longest = max(set_counts) * (max(SET_SIZES) // 200 + 2)
    # Not the memoised ``common.twitter_trace``: no other experiment reads
    # a 1/32-scale trace, so the cache would only keep it alive.
    trace = merged_twitter_trace(
        num_requests=max(8 * longest, 200_000), wss_scale=1.0 / 32
    )
    first_seen = np.sort(np.unique(trace.keys, return_index=True)[1])
    for workload in ("twitter", "synthetic"):
        for num_sets in set_counts:
            for set_size in SET_SIZES:
                # Enough objects to certainly fill some set.
                budget = num_sets * (set_size // 200 + 2)
                keys, sizes = (
                    _twitter_stream(budget, trace, first_seen)
                    if workload == "twitter"
                    else _synthetic_stream(budget)
                )
                offsets = (splitmix64_array(keys, seed=7) % np.uint64(num_sets)).astype(
                    np.int64
                )
                _, remaining = fill_at_first_full_simulated(
                    num_sets, set_size, sizes, offsets
                )
                mean_size = float(sizes.mean())
                model = expected_fill_when_first_set_full(
                    num_sets, max(1, int(set_size / mean_size))
                )
                result.rows.append(
                    {
                        "workload": workload,
                        "num_sets": num_sets,
                        "set_size": set_size,
                        "remaining_fill": remaining,
                        "model_fill": model,
                    }
                )
    return result
