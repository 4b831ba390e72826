"""Memory contracts of the closed-loop and latency-recording paths.

The closed loop keeps its per-request state in flat 8-byte buffers:
the frontend's arrival / class / issue / completion columns, the
service closure's views of the trace columns plus one 4-byte placement
column, and the recorder's samples.  A Python ``float`` or large ``int``
per request costs 32 B (the object plus its list slot), so these
``tracemalloc`` peaks catch any path that goes back to per-request
objects.
"""

from __future__ import annotations

import tracemalloc
from collections.abc import Callable

import numpy as np

from repro.core.config import NemoConfig
from repro.core.nemo import NemoCache
from repro.flash.devsim.frontend import FrontendScheduler
from repro.flash.geometry import FlashGeometry
from repro.harness.percentile import LatencyRecorder
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace

N = 100_000


def traced_peak(fn: Callable[[], object]) -> int:
    """Peak bytes ``tracemalloc`` sees while ``fn`` runs, result kept."""
    tracemalloc.start()
    try:
        kept = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del kept
    return peak


def test_frontend_holds_at_most_48_bytes_per_request():
    """Arrival, class, issue and completion columns are 8 B each; the
    in-flight list holds at most ``queue_depth`` entries."""
    arrivals = np.arange(N, dtype=np.float64) * 10.0
    classes = np.arange(N, dtype=np.int64) % 2

    def run() -> FrontendScheduler:
        frontend = FrontendScheduler(
            arrivals, class_ids=classes, num_classes=2, queue_depth=16
        )
        frontend.run(lambda index, now: 100.0)
        return frontend

    assert traced_peak(run) <= 48 * N


def test_service_fn_holds_at_most_48_bytes_per_request():
    """The closure indexes the trace's own columns and keeps one 4-byte
    placement column, hashed in blocks."""
    rng = np.random.default_rng(7)
    trace = Trace(
        ops=rng.choice([OP_GET, OP_SET, OP_DELETE], size=N, p=[0.8, 0.15, 0.05]),
        keys=rng.integers(1 << 32, 1 << 48, size=N),
        sizes=rng.integers(300, 1_000, size=N),
    )
    engine = NemoCache(
        FlashGeometry(page_size=4096, pages_per_block=16, num_blocks=64, blocks_per_zone=1),
        NemoConfig(flush_threshold=4, sgs_per_index_group=2, bf_capacity_per_set=20),
    )
    assert engine.columnar_spec() is not None
    assert traced_peak(lambda: engine.service_fn(trace)) <= 48 * N


def test_latency_recorder_holds_at_most_10_bytes_per_sample():
    """One 8-byte slot per sample plus the buffer's growth slack."""

    def record() -> LatencyRecorder:
        recorder = LatencyRecorder()
        append = recorder.record
        for i in range(N):
            append(i * 0.5)
        return recorder

    assert traced_peak(record) <= 10 * N
