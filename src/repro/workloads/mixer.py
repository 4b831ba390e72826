"""Trace scaling and merging (§5.1 protocol).

The paper applies cache pressure by (a) running each cluster across four
disjoint key spaces and (b) proportionally interleaving the four
clusters' requests "to avoid periods dominated by a single workload's
characteristics".  :func:`merged_twitter_trace` reproduces that recipe at
simulator scale; :func:`proportional_interleave` is the general merge
primitive.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.workloads.trace import Trace
from repro.workloads.twitter import TWITTER_CLUSTERS, generate_cluster_trace


#: Merged requests placed per step of :func:`proportional_interleave`.
_WINDOW = 1 << 16


def _positions(k: np.ndarray, n: int, j: int) -> np.ndarray:
    """Virtual positions of requests ``k`` of input ``j`` (length ``n``)."""
    # The tiny per-input offset breaks ties deterministically without
    # disturbing the stratification.
    return (k + 0.5) / n + j * 1e-12


def _count_below(cuts: np.ndarray, n: int, j: int) -> np.ndarray:
    """Per cut value, how many requests of input ``j`` lie below it."""
    if n == 0:
        return np.zeros(len(cuts), dtype=np.int64)
    count = np.clip(np.ceil((cuts - j * 1e-12) * n - 0.5), 0, n).astype(np.int64)
    # The closed-form estimate can miss by one where rounding lands on a
    # cut; step it onto the exact count under the float positions.
    while True:
        down = (count > 0) & (_positions(count - 1, n, j) >= cuts)
        up = (count < n) & (_positions(count, n, j) < cuts)
        if not (down.any() or up.any()):
            return count
        count += up
        count -= down


def proportional_interleave(traces: list[Trace], *, name: str = "mix") -> Trace:
    """Merge traces so each contributes at its own steady proportion.

    Deterministic low-discrepancy interleave: request *k* of input *j*
    (of length ``n_j``) is placed at virtual position ``(k + 0.5) / n_j``
    on a common [0, 1) axis, and the merged order is the stable sort of
    all virtual positions (a stratified merge).  Every input is spread
    evenly across the whole merged trace — no RNG noise, no long
    single-workload runs (the paper's stated goal).

    The order depends on the input lengths alone, so it is computed one
    window of the axis at a time: each input's requests inside the
    window are a contiguous slice, their positions are sorted, and the
    slices' columns are written straight into the merged arrays.  Beyond
    the inputs and the result, memory is O(window).
    """
    if not traces:
        raise TraceError("need at least one trace")
    lengths = [len(t) for t in traces]
    total = sum(lengths)
    if total == 0:
        raise TraceError("traces are empty")

    windows = -(-total // _WINDOW)
    cuts = np.arange(1, windows) / windows
    bounds = [
        np.concatenate(([0], _count_below(cuts, n, j), [n]))
        for j, n in enumerate(lengths)
    ]
    ops = np.empty(total, dtype=np.uint8)
    keys = np.empty(total, dtype=np.int64)
    sizes = np.empty(total, dtype=np.int64)
    start = 0
    for w in range(windows):
        parts = [
            (j, int(b[w]), int(b[w + 1]))
            for j, b in enumerate(bounds)
            if b[w + 1] > b[w]
        ]
        if not parts:
            continue
        positions = np.concatenate(
            [_positions(np.arange(lo, hi), lengths[j], j) for j, lo, hi in parts]
        )
        order = np.argsort(positions, kind="stable")
        stop = start + len(order)
        for out, column in ((ops, "ops"), (keys, "keys"), (sizes, "sizes")):
            window = np.concatenate(
                [getattr(traces[j], column)[lo:hi] for j, lo, hi in parts]
            )
            np.take(window, order, out=out[start:stop])
        start = stop
    return Trace(
        ops=ops,
        keys=keys,
        sizes=sizes,
        name=name,
        num_keys=max(t.num_keys for t in traces),
        meta={"components": [t.name for t in traces]},
    )


def merged_twitter_trace(
    *,
    num_requests: int,
    wss_scale: float = 1.0 / 1024,
    clusters: list[str] | None = None,
    get_fraction: float = 0.97,
    seed: int = 0,
) -> Trace:
    """The paper's merged Twitter workload at simulator scale.

    Generates each cluster trace over a disjoint key space and
    proportionally interleaves them.  Request counts are split equally
    (the paper interleaves "proportionally"; with equal slices every
    cluster stays continuously represented).

    The resulting mean object size is ≈246 B, matching §5.1.
    """
    if clusters is None:
        clusters = sorted(TWITTER_CLUSTERS)
    if not clusters:
        raise TraceError("need at least one cluster")
    per = num_requests // len(clusters)
    if per == 0:
        raise TraceError(f"num_requests too small for {len(clusters)} clusters")

    parts: list[Trace] = []
    key_base = 0
    for i, cname in enumerate(clusters):
        t = generate_cluster_trace(
            cname,
            num_requests=per,
            wss_scale=wss_scale,
            get_fraction=get_fraction,
            seed=seed + i * 1000003,
            key_base=key_base,
        )
        key_base = t.num_keys
        parts.append(t)

    mixed = proportional_interleave(parts, name="twitter-mix")
    mixed.num_keys = key_base
    mixed.meta["wss_scale"] = wss_scale
    return mixed
