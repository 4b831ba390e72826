"""Workload generation: synthetic Twitter-cache traces.

The paper replays four production Twitter cache traces (clusters 14, 29,
34, 52 — Table 5) merged per §5.1's protocol.  The raw traces are not
available offline, so this subpackage generates synthetic equivalents
parameterised by Table 5: per-cluster key/value sizes, working-set size,
and Zipfian skew (α ≈ 1.1–1.3), plus the paper's scaling protocol
(4 disjoint key spaces, proportional interleave, 2×/3× value downscale
for clusters 14/29 → ≈246 B average objects).

Traces are numpy-backed (:class:`~repro.workloads.trace.Trace`) so that
million-request traces generate in milliseconds and replay without
per-request Python object overhead.
"""

from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace
from repro.workloads.zipf import ZipfGenerator, zipf_probabilities
from repro.workloads.sizes import (
    LogNormalSizeModel,
    NormalSizeModel,
    SizeModel,
)
from repro.workloads.twitter import (
    TWITTER_CLUSTERS,
    TwitterClusterSpec,
    generate_cluster_trace,
)
from repro.workloads.mixer import merged_twitter_trace, proportional_interleave
from repro.workloads.twitter_csv import load_twitter_csv

__all__ = [
    "OP_GET",
    "OP_SET",
    "OP_DELETE",
    "Trace",
    "ZipfGenerator",
    "zipf_probabilities",
    "SizeModel",
    "NormalSizeModel",
    "LogNormalSizeModel",
    "TwitterClusterSpec",
    "TWITTER_CLUSTERS",
    "generate_cluster_trace",
    "proportional_interleave",
    "merged_twitter_trace",
    "load_twitter_csv",
]
