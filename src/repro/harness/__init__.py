"""Replay harness: drive any engine over a trace and collect metrics.

:func:`~repro.harness.runner.replay` is the single entry point the
examples, experiments, and benchmarks share.  It implements the cache
client loop (GET with read-through admission on miss, SET, DELETE),
advances a simulated clock from a configurable arrival rate so the
latency model sees realistic inter-arrival gaps, and samples engine
metrics periodically for the trend figures (WA vs ops, miss-ratio
trend, flash writes per minute).
"""

from repro.harness.percentile import LatencyRecorder
from repro.harness.metrics import MetricSeries, WindowedRate
from repro.harness.parallel import (
    Cell,
    CellFailure,
    default_jobs,
    run_cells,
)
from repro.harness.runner import ReplayResult, replay
from repro.harness.report import cdf_from_counter, format_table

__all__ = [
    "LatencyRecorder",
    "MetricSeries",
    "WindowedRate",
    "ReplayResult",
    "replay",
    "format_table",
    "cdf_from_counter",
    "Cell",
    "CellFailure",
    "default_jobs",
    "run_cells",
]
