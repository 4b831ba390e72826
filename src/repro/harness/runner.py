"""Trace replay: the cache-client loop shared by all experiments.

Semantics (matching the paper's CacheLib harness):

- **GET**: look the key up; on a miss, admit the object (read-through —
  the backend fetch is implicit).  Hits/misses feed the miss-ratio
  figures; hit latencies feed the latency percentiles.
- **SET**: insert/overwrite the object.
- **DELETE**: user-driven removal.

A simulated wall clock advances by ``1e6 / ARRIVAL_RATE`` microseconds
per request so the device latency model experiences realistic
inter-arrival gaps; "flash writes per minute" uses this clock.

One loop replays every lane: :func:`replay_plan` cuts the trace into
chunks that end at sample boundaries, and an *executor* advances the
engine to each boundary before the loop's window-mark / sample epilogue
runs.  The three executors share these semantics and are byte-identical
(the metric-parity goldens compare them):

- ``kernel="batched"`` (default): each chunk is pre-sliced into same-op
  runs handed to the engines' bulk fast paths, with the placement hash
  of the chunk computed once here (``Trace.set_id_slice``).
- ``kernel="columnar"``: whole-trace numpy decision passes; engines
  with a registered whole-trace kernel (Log, Nemo — see
  ``KERNEL_REGISTRY`` in :mod:`repro.harness.columnar`) open it once and
  advance it chunk by chunk, other engines replay batched.  A kernel
  that bails (first eviction) returns a position short of the boundary
  and the batched executor finishes that chunk and the rest.
- ``kernel="scalar"``: the :class:`CacheEngine` run loops, one
  ``_lookup_at`` (+ ``_insert_at`` on a miss), ``_insert_at`` or
  ``delete`` per request on the same placement column — the slowest
  lane, kept only as the semantic reference the parity goldens compare
  the other two against.
"""

from __future__ import annotations

import bisect
import os
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import CacheEngine
from repro.errors import ConfigError
from repro.harness.metrics import MetricSeries
from repro.harness.percentile import LatencyRecorder
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace

#: Percentiles the paper reports (Fig. 15): median, p99, p9999.
LATENCY_PERCENTILES = [50.0, 99.0, 99.99]

#: Requests per simulated second: the replay clock's open-loop rate.
ARRIVAL_RATE = 50_000.0

#: Valid ``replay(kernel=...)`` lanes.
REPLAY_KERNELS = ("batched", "columnar", "scalar")

#: Requests the batched executor converts (and hashes) at once: large
#: enough to amortise numpy call overhead over many short chunks, small
#: enough that the block's Python lists stay well under 1 MB.
_BLOCK = 1 << 12

#: Environment override for the default lane (parity tests sweep it).
KERNEL_ENV_VAR = "REPRO_REPLAY_KERNEL"


def resolve_kernel(kernel: str | None) -> str:
    """Pick the replay lane: explicit argument, else env, else batched."""
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV_VAR) or "batched"
    if kernel not in REPLAY_KERNELS:
        raise ConfigError(
            f"unknown replay kernel {kernel!r}; expected one of {REPLAY_KERNELS}"
        )
    return kernel


@dataclass
class ReplayResult:
    """Everything one replay produced."""

    engine_name: str
    trace_name: str
    num_requests: int
    final: dict[str, float]
    series: dict[str, MetricSeries] = field(default_factory=dict)
    latency: LatencyRecorder = field(default_factory=LatencyRecorder)
    wall_seconds: float = 0.0
    #: Which replay lane produced this result (metrics are lane-invariant).
    kernel: str = "batched"
    #: Human-readable dispatch notes (e.g. why the columnar lane fell
    #: back to batched dispatch for this engine/trace combination).
    notes: list[str] = field(default_factory=list)

    @property
    def wa(self) -> float:
        return self.final.get("wa", float("nan"))

    @property
    def miss_ratio(self) -> float:
        return self.final.get("miss_ratio", float("nan"))

    def summary(self) -> str:
        parts = [
            f"{self.engine_name} on {self.trace_name}:",
            f"{self.num_requests:,} reqs in {self.wall_seconds:.1f}s wall",
            f"WA={self.wa:.2f}",
            f"miss={self.miss_ratio:.3f}",
        ]
        if len(self.latency):
            p = self.latency.percentiles(LATENCY_PERCENTILES)
            parts.append(
                "lat p50/p99/p9999 = "
                + "/".join(f"{p[q]:.0f}us" for q in LATENCY_PERCENTILES)
            )
        return "  ".join(parts)


def replay_plan(
    n: int,
    sample_every: int | None = None,
    sample_at: Sequence[int] | None = None,
    mark_window_at: int | None = None,
) -> tuple[list[int], set[int], int | None]:
    """The chunk layout of one ``n``-request replay.

    Returns ``(boundaries, sample_points, mark)``: the sorted positions
    a chunk ends at, and which of them sample and place the Fig. 15
    window mark.  The default sampling layout is
    every ``sample_every`` requests (None = 64 samples) plus the end of
    a non-empty trace; ``sample_at`` replaces it (position 0 included;
    an empty ``sample_at`` samples nothing, as a cluster shard does).
    The end of the trace is always a boundary, so a replay runs every
    request whether or not its last sample sits there.  Sample and mark
    positions beyond the trace are never reached and drop out; a
    non-positive stride or a negative position is a
    :class:`ConfigError`.
    """
    if sample_every is not None and sample_every <= 0:
        raise ConfigError("sample_every must be positive")
    if mark_window_at is not None and mark_window_at < 0:
        raise ConfigError("mark_window_at must be non-negative")
    if sample_at is not None:
        if any(b < 0 for b in sample_at):
            raise ConfigError("sample_at positions must be non-negative")
        sample_points = {int(b) for b in sample_at if b <= n}
    else:
        every = sample_every or max(1, n // 64)
        sample_points = set(range(every, n + 1, every))
        if n:
            sample_points.add(n)
    mark = (
        mark_window_at
        if mark_window_at is not None and 1 <= mark_window_at <= n
        else None
    )
    boundaries = sample_points | {n}
    if mark is not None:
        boundaries.add(mark)
    return sorted(boundaries), sample_points, mark


def replay(
    engine: CacheEngine,
    trace: Trace,
    *,
    sample_every: int | None = None,
    sample_at: Sequence[int] | None = None,
    record_latency: bool = False,
    mark_window_at: int | None = None,
    sampled_metrics: tuple[str, ...] = ("wa", "miss_ratio", "host_write_bytes"),
    progress: bool = False,
    kernel: str | None = None,
) -> ReplayResult:
    """Replay ``trace`` against ``engine`` and collect metrics.

    Parameters
    ----------
    engine:
        Any :class:`~repro.baselines.base.CacheEngine`.
    trace:
        The request stream.
    sample_every:
        Record ``sampled_metrics`` every N requests (None = 64 samples).
        A sample computes only the snapshot entries it records
        (``metrics_snapshot(sampled_metrics)``).
    sample_at:
        Explicit sample positions (overrides ``sample_every``); the
        system runs sample the union of every figure's layout with it.
    record_latency:
        Record per-GET service latency (needs the engine's device to
        have a latency model for non-zero values).
    mark_window_at:
        Request index at which to split latency percentiles into
        before/after windows (Fig. 15's "flash space fully utilised"
        dashed line).
    progress:
        Print a one-line progress note every ~10 % of the trace.
    kernel:
        Replay lane: ``"batched"`` (default), ``"columnar"``, or
        ``"scalar"``.  ``None`` reads the ``REPRO_REPLAY_KERNEL``
        environment variable.  All lanes produce byte-identical metrics;
        the columnar lane falls back to batched dispatch wherever its
        whole-trace kernel is not applicable (latency models,
        pre-warmed engines, device wrap-around).

    Device timing is the engine's own: build it with ``latency=`` or
    call ``engine.install_latency_model`` before replay.  The simulated
    clock advances ``1e6 / ARRIVAL_RATE`` µs per request.
    """
    kernel = resolve_kernel(kernel)
    n = len(trace)
    series = {m: MetricSeries(name=m) for m in sampled_metrics}
    latency = LatencyRecorder()

    step_us = 1e6 / ARRIVAL_RATE

    # The trace is pre-sliced into chunks that end exactly at a sample
    # boundary or the Fig. 15 window mark, so no per-request
    # sampling/marking branches survive in any executor.
    boundaries, sample_points, mark = replay_plan(
        n, sample_every, sample_at, mark_window_at
    )

    # Only latency recording needs per-GET instrumentation; everything
    # else (sampling, window marks) happens at chunk
    # boundaries on every executor.  ``latency.record`` is the sample
    # buffer's own bound ``append``, bound here once: a recorded GET
    # costs one C call, no Python method frame.
    record = latency.record if record_latency else None

    if kernel == "scalar":
        # The reference lane: every request goes through the base-class
        # run loops (``_lookup_at`` / ``_insert_at`` / ``delete`` per
        # request) instead of the engines' inlined bulk paths.
        lookup_many = CacheEngine.lookup_many.__get__(engine)
        insert_many = CacheEngine.insert_many.__get__(engine)
        delete_many = CacheEngine.delete_many.__get__(engine)
    else:
        lookup_many = engine.lookup_many
        insert_many = engine.insert_many
        delete_many = engine.delete_many
    OP_GET_, OP_SET_, OP_DELETE_ = OP_GET, OP_SET, OP_DELETE  # local binds
    progress_every = next_progress = max(1, n // 10)

    t0 = time.perf_counter()
    now_us = 0.0
    start = 0

    # Columnar executor: the engine's whole-trace kernel, opened once
    # (decision pass + engine handles); ``advance(stop)`` replays up to
    # ``stop`` and returns the position it reached.
    advance: Callable[[int], int] | None = None
    notes: list[str] = []
    if kernel == "columnar":
        from repro.harness.columnar import (
            kernel_for,
            kernel_ineligible_reason,
            sim_clock,
        )

        reason = kernel_ineligible_reason(engine, trace)
        if reason is None:
            spec = kernel_for(engine)
            assert spec is not None  # eligible implies registered
            advance = spec.replay(
                engine,
                trace,
                step_us=step_us,
                latency=latency if record_latency else None,
                sampled_metrics=sampled_metrics,
            )
            clock = sim_clock(trace, step_us)
        else:
            notes.append(
                "columnar kernel unavailable, falling back to batched "
                f"dispatch: {reason}"
            )

    # Every bulk call gets the block's placement column as ``offsets``:
    # one vectorised hash per block here for engines with a placement
    # hash (Nemo, FW/KG, Set), the keys themselves for the others.
    placement = engine.columnar_spec()
    # The batched executor's current block: trace[block_start:block_stop]
    # as Python lists, with its run starts.
    block_start = block_stop = 0
    ops_arr = trace.ops[:0]
    keys: list[int] = []
    sizes: list[int] = []
    offsets: list[int] = []
    cuts: list[int] = []

    for stop in boundaries:
        if advance is not None:
            start = advance(stop)
            now_us = float(clock[start - 1]) if start else 0.0
            if start < stop:
                # Bail (first eviction): engine state is exact through
                # ``start``; the batched executor below finishes this
                # chunk and every later one from there.
                advance = None
        if start < stop:
            # Batched executor: the chunk is segmented into runs of the
            # same op and handed to the engine's bulk API
            # (``lookup_many``/``insert_many``/``delete_many``), which
            # owns the per-request loop — engines with inlined GET loops
            # amortise counter updates across the run; others (and the
            # scalar executor) run the :class:`CacheEngine` defaults.
            # The trace is converted to Python lists once per block —
            # whole chunks, up to _BLOCK requests unless one chunk is
            # longer — because `int(keys[i])` per request boxes a fresh
            # numpy scalar, which dominated the seed loop's profile, and
            # per-chunk numpy passes dominate densely sampled replays
            # (many short chunks).
            if stop > block_stop:
                # Up to the last boundary within _BLOCK of ``start``.
                i = bisect.bisect_right(boundaries, start + _BLOCK)
                block_start = start
                block_stop = max(stop, boundaries[i - 1]) if i else stop
                ops_arr = trace.ops[block_start:block_stop]
                keys = trace.keys[block_start:block_stop].tolist()
                sizes = trace.sizes[block_start:block_stop].tolist()
                offsets = (
                    trace.set_id_slice(*placement, block_start, block_stop).tolist()
                    if placement is not None
                    else keys
                )
                # Run starts: block positions where the op code changes.
                cuts = (np.flatnonzero(ops_arr[1:] != ops_arr[:-1]) + 1).tolist()
            lo, hi = start - block_start, stop - block_start
            start = stop
            bounds = [
                lo,
                *cuts[bisect.bisect_right(cuts, lo) : bisect.bisect_left(cuts, hi)],
                hi,
            ]
            for a, b in zip(bounds, bounds[1:]):
                op = ops_arr[a]
                if op == OP_GET_:
                    now_us = lookup_many(
                        keys[a:b], sizes[a:b], now_us, step_us, record,
                        offsets=offsets[a:b],
                    )
                elif op == OP_SET_:
                    now_us = insert_many(
                        keys[a:b], sizes[a:b], now_us, step_us,
                        offsets=offsets[a:b],
                    )
                elif op == OP_DELETE_:
                    now_us = delete_many(keys[a:b], now_us, step_us)
                else:  # unknown op: clock advances, nothing else
                    for _ in range(b - a):
                        now_us += step_us

        if stop == mark:
            latency.mark_window()
        if stop in sample_points:
            snap = engine.metrics_snapshot(sampled_metrics)
            for m in sampled_metrics:
                series[m].record(stop, snap.get(m, float("nan")))
            if progress and stop >= next_progress:
                # One line per ~10 % of the trace: the first sample at
                # or past each decile.
                next_progress = (stop // progress_every + 1) * progress_every
                print(
                    f"  [{engine.name}] {stop:,}/{n:,} "
                    f"wa={snap.get('wa', float('nan')):.2f} "
                    f"miss={snap.get('miss_ratio', float('nan')):.3f}"
                )
    return ReplayResult(
        engine_name=engine.name,
        trace_name=trace.name,
        num_requests=n,
        final=engine.metrics_snapshot(),
        series=series,
        latency=latency,
        wall_seconds=time.perf_counter() - t0,
        kernel=kernel,
        notes=notes,
    )
