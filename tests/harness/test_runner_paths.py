"""Fast-path vs instrumented-path equivalence for ``replay``.

``replay`` dispatches to a branch-free inner loop when latency is not
recorded and to a fully-instrumented loop when it is.  Both must
produce identical cache metrics — the only permitted difference is the
presence of latency samples.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from repro.baselines.log_structured import LogStructuredCache
from repro.experiments.common import scale_params
from repro.experiments.fig12_wa_main import build_engines
from repro.harness.runner import replay
from repro.workloads.trace import OP_GET


def _series_rows(result):
    return {name: s.as_rows() for name, s in result.series.items()}


def _assert_metrics_equal(fast, instrumented):
    assert fast.final.keys() == instrumented.final.keys()
    for name, va in fast.final.items():
        vb = instrumented.final[name]
        assert va == vb or (math.isnan(va) and math.isnan(vb)), name
    fast_rows = _series_rows(fast)
    inst_rows = _series_rows(instrumented)
    assert fast_rows.keys() == inst_rows.keys()
    for name in fast_rows:
        for (xa, va), (xb, vb) in zip(fast_rows[name], inst_rows[name]):
            assert xa == xb
            assert va == vb or (math.isnan(va) and math.isnan(vb))


class TestPathEquivalence:
    def test_final_and_series_identical(self, small_geometry, small_trace):
        fast = replay(
            LogStructuredCache(small_geometry),
            small_trace,
            sample_every=5_000,
        )
        instrumented = replay(
            LogStructuredCache(small_geometry),
            small_trace,
            sample_every=5_000,
            record_latency=True,
        )
        _assert_metrics_equal(fast, instrumented)

    def test_latency_only_on_instrumented_path(self, small_geometry, small_trace):
        fast = replay(LogStructuredCache(small_geometry), small_trace)
        instrumented = replay(
            LogStructuredCache(small_geometry),
            small_trace,
            record_latency=True,
        )
        assert len(fast.latency) == 0
        num_gets = int(np.count_nonzero(small_trace.ops == OP_GET))
        assert len(instrumented.latency) == num_gets

    def test_window_marking_identical(self, small_geometry, small_trace):
        mark = len(small_trace) // 2
        fast = replay(
            LogStructuredCache(small_geometry),
            small_trace,
            mark_window_at=mark,
        )
        instrumented = replay(
            LogStructuredCache(small_geometry),
            small_trace,
            mark_window_at=mark,
            record_latency=True,
        )
        _assert_metrics_equal(fast, instrumented)


@pytest.fixture
def hash_calls(monkeypatch):
    """Lengths of every ``splitmix64_array`` call, whichever module
    imported the name."""
    import repro.hashing

    original = repro.hashing.splitmix64_array
    calls: list[int] = []

    def counting(keys, seed=0):
        calls.append(len(keys))
        return original(keys, seed)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "splitmix64_array", None) is original
        ):
            monkeypatch.setattr(module, "splitmix64_array", counting)
    return calls


@pytest.mark.parametrize("name", ["Log", "Set", "FW", "KG", "Nemo"])
class TestOneHashPerChunk:
    """The batched lane hashes each chunk's keys once in the runner —
    not once per same-op run in the engine, and never the whole trace."""

    def build(self, name):
        engines = build_engines(scale_params("micro")[0])
        return next(e for e in engines if e.name == name)

    def test_batched_replay_hashes_once_per_chunk(
        self, name, pressure_trace, hash_calls
    ):
        # A new Trace object: the shared fixture's caches stay out of it.
        trace = pressure_trace.slice(0, len(pressure_trace))
        batched = replay(self.build(name), trace, kernel="batched")
        if name == "Log":  # no placement hash at all
            assert hash_calls == []
        else:
            # Default sampling: 64 boundaries plus the end of the trace.
            assert 0 < len(hash_calls) <= 65
            assert sum(hash_calls) == len(trace)
        assert trace._column_cache == {}
        scalar = replay(self.build(name), trace, kernel="scalar")
        _assert_metrics_equal(batched, scalar)

    def test_cached_column_is_sliced_not_rehashed(
        self, name, pressure_trace, hash_calls
    ):
        spec = self.build(name).columnar_spec()
        if spec is None:
            pytest.skip("engine has no placement column")
        trace = pressure_trace.slice(0, len(pressure_trace))
        trace.columns(*spec)
        assert hash_calls == [len(trace)]
        cold = replay(
            self.build(name), pressure_trace.slice(0, len(trace)), kernel="batched"
        )
        del hash_calls[:]
        warm = replay(self.build(name), trace, kernel="batched")
        assert hash_calls == []
        _assert_metrics_equal(warm, cold)


@pytest.mark.parametrize("name", ["Log", "FW", "Nemo"])
def test_blocks_span_whole_chunks(name, pressure_trace, hash_calls, monkeypatch):
    """The batched executor prepares the trace a block of whole chunks at
    a time: one hash per block, every request once, a chunk longer than
    the block is its own block — and results equal the scalar lane on a
    layout mixing long and very short chunks."""
    import repro.harness.runner as runner

    monkeypatch.setattr(runner, "_BLOCK", 1_000)
    n = len(pressure_trace)
    # One 2,500-request chunk, then chunks of 7 to 300 requests.
    sample_at = [2_500, *range(2_507, n, 7 * 43), *range(n // 2, n, 300)]
    engines = {e.name: e for e in build_engines(scale_params("micro")[0])}
    batched = replay(engines[name], pressure_trace.slice(0, n), sample_at=sample_at)
    if name == "Log":
        assert hash_calls == []
    else:
        assert sum(hash_calls) == n
        assert hash_calls[0] == 2_500
        assert max(hash_calls[1:]) <= 1_000
    rebuilt = {e.name: e for e in build_engines(scale_params("micro")[0])}
    scalar = replay(rebuilt[name], pressure_trace, sample_at=sample_at, kernel="scalar")
    _assert_metrics_equal(batched, scalar)
