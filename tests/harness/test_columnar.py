"""Byte-identity tests for the whole-trace columnar Log kernel.

The columnar lane (``harness/columnar.py``) must be indistinguishable
from the batched lane in every observable: final snapshot, sampled
series, latency recorder internals, write-rate windows, simulated
clock.  These tests drive it through ``replay(kernel="columnar")``
on crafted and Hypothesis-random traces, including the wrap/bail path
(columnar prefix + batched suffix) and every eligibility fallback.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.log_structured import LogStructuredCache
from repro.baselines.set_associative import SetAssociativeCache
from repro.flash.latency import LatencyModel
from repro.harness.columnar import log_kernel_ineligible_reason, sim_clock
from repro.harness.runner import replay
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace


def _assert_finals_identical(fa, fb):
    """Snapshot dict equality, nan-aware (nan == nan here)."""
    assert fa.keys() == fb.keys()
    for key in fa:
        va, vb = fa[key], fb[key]
        assert va == vb or (
            isinstance(va, float)
            and isinstance(vb, float)
            and math.isnan(va)
            and math.isnan(vb)
        ), f"{key}: {va!r} != {vb!r}"


def _assert_results_identical(a, b):
    """Every observable of two ReplayResults matches bit-for-bit."""
    _assert_finals_identical(a.final, b.final)
    assert a.series.keys() == b.series.keys()
    for name in a.series:
        for (xa, va), (xb, vb) in zip(
            a.series[name].as_rows(), b.series[name].as_rows()
        ):
            assert xa == xb
            assert va == vb or (math.isnan(va) and math.isnan(vb))
    assert a.latency._values == b.latency._values
    assert a.latency._window_bounds == b.latency._window_bounds
    assert a.num_requests == b.num_requests


def _mixed_trace(n=4000, num_keys=300, seed=7):
    """GET-heavy trace with SETs and DELETEs over a small key universe."""
    rng = np.random.default_rng(seed)
    ops = rng.choice(
        np.array([OP_GET, OP_SET, OP_DELETE], dtype=np.uint8),
        size=n,
        p=[0.8, 0.15, 0.05],
    )
    return Trace(
        ops=ops,
        keys=rng.integers(0, num_keys, size=n),
        sizes=rng.integers(40, 400, size=n),
        name="mixed",
    )


class TestColumnarParity:
    def test_plain_replay(self, small_geometry):
        trace = _mixed_trace()
        batched = replay(LogStructuredCache(small_geometry), trace)
        columnar = replay(
            LogStructuredCache(small_geometry), trace, kernel="columnar"
        )
        assert columnar.kernel == "columnar"
        _assert_results_identical(columnar, batched)

    def test_instrumented_replay(self, small_geometry):
        trace = _mixed_trace()
        kwargs = dict(
            sample_every=517,
            record_latency=True,
            mark_window_at=len(trace) // 3,
        )
        batched = replay(LogStructuredCache(small_geometry), trace, **kwargs)
        columnar = replay(
            LogStructuredCache(small_geometry),
            trace,
            kernel="columnar",
            **kwargs,
        )
        _assert_results_identical(columnar, batched)

    def test_engine_end_state_identical(self, small_geometry):
        trace = _mixed_trace()
        eng_b = LogStructuredCache(small_geometry)
        eng_c = LogStructuredCache(small_geometry)
        replay(eng_b, trace)
        replay(eng_c, trace, kernel="columnar")
        _assert_finals_identical(eng_c.metrics_snapshot(), eng_b.metrics_snapshot())
        assert eng_c.object_count() == eng_b.object_count()

    def test_wrapping_trace_bails_to_batched_suffix(self, tiny_geometry):
        """A trace that wraps the device replays columnar-prefix +
        batched-suffix, still byte-identical (evictions included)."""
        trace = _mixed_trace(n=12_000, num_keys=2_000, seed=3)
        batched = replay(LogStructuredCache(tiny_geometry), trace)
        columnar = replay(
            LogStructuredCache(tiny_geometry), trace, kernel="columnar"
        )
        # The point of this cell: evictions actually happened.
        assert batched.final["evicted_objects"] > 0
        _assert_results_identical(columnar, batched)

    def test_wrapping_instrumented(self, tiny_geometry):
        trace = _mixed_trace(n=12_000, num_keys=2_000, seed=3)
        kwargs = dict(
            record_latency=True, mark_window_at=6_000, sample_every=997
        )
        batched = replay(LogStructuredCache(tiny_geometry), trace, **kwargs)
        columnar = replay(
            LogStructuredCache(tiny_geometry),
            trace,
            kernel="columnar",
            **kwargs,
        )
        _assert_results_identical(columnar, batched)

    @given(
        ops=st.lists(st.sampled_from([OP_GET, OP_SET, OP_DELETE]),
                     min_size=1, max_size=120),
        seed=st.integers(0, 2**31 - 1),
        num_keys=st.integers(1, 30),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_traces_identical(self, ops, seed, num_keys):
        from repro.flash.geometry import FlashGeometry

        tiny_geometry = FlashGeometry(
            page_size=4096, pages_per_block=16, num_blocks=8, blocks_per_zone=1
        )
        rng = np.random.default_rng(seed)
        n = len(ops)
        trace = Trace(
            ops=np.asarray(ops, dtype=np.uint8),
            keys=rng.integers(0, num_keys, size=n),
            sizes=rng.integers(1, 500, size=n),
        )
        batched = replay(
            LogStructuredCache(tiny_geometry), trace, sample_every=17
        )
        columnar = replay(
            LogStructuredCache(tiny_geometry),
            trace,
            sample_every=17,
            kernel="columnar",
        )
        _assert_results_identical(columnar, batched)


class TestKernelCache:
    def test_decision_columns_cached_on_trace(self, small_geometry):
        trace = _mixed_trace()
        assert trace._kernel_cache == {}
        replay(LogStructuredCache(small_geometry), trace, kernel="columnar")
        assert "log-links" in trace._kernel_cache
        assert any(
            isinstance(k, tuple) and k[0] == "log-plan"
            for k in trace._kernel_cache
        )
        links = trace._kernel_cache["log-links"]
        second = replay(
            LogStructuredCache(small_geometry), trace, kernel="columnar"
        )
        # Reused, not recomputed — and the replay stays identical.
        assert trace._kernel_cache["log-links"] is links
        first = replay(LogStructuredCache(small_geometry), trace)
        _assert_results_identical(second, first)

    def test_clock_matches_per_request_accumulation(self):
        trace = _mixed_trace(n=1000)
        step = 1e6 / 50_000.0
        clock = sim_clock(trace, step)
        now = 0.0
        expected = []
        for _ in range(len(trace)):
            now += step
            expected.append(now)
        assert clock.tolist() == expected


class TestEligibility:
    def test_virgin_log_engine_eligible(self, small_geometry):
        assert log_kernel_ineligible_reason(
            LogStructuredCache(small_geometry), _mixed_trace()
        ) is None

    def test_non_log_engine_ineligible(self, small_geometry):
        reason = log_kernel_ineligible_reason(
            SetAssociativeCache(small_geometry), _mixed_trace()
        )
        assert reason is not None and "only replays LogStructuredCache" in reason

    def test_warm_engine_ineligible(self, small_geometry):
        engine = LogStructuredCache(small_geometry)
        engine.insert(1, 100)
        reason = log_kernel_ineligible_reason(engine, _mixed_trace())
        assert reason is not None and "not virgin" in reason

    def test_latency_model_ineligible(self, small_geometry):
        engine = LogStructuredCache(small_geometry, latency=LatencyModel())
        reason = log_kernel_ineligible_reason(engine, _mixed_trace())
        assert reason is not None and "latency models" in reason

    def test_oversized_object_ineligible(self, small_geometry):
        trace = Trace(
            ops=np.array([OP_SET], dtype=np.uint8),
            keys=np.array([1]),
            sizes=np.array([small_geometry.page_size]),
        )
        reason = log_kernel_ineligible_reason(
            LogStructuredCache(small_geometry), trace
        )
        assert reason is not None and "oversized object" in reason

    def test_empty_trace_ineligible(self, small_geometry):
        trace = Trace(
            ops=np.zeros(0, dtype=np.uint8),
            keys=np.zeros(0, dtype=np.int64),
            sizes=np.zeros(0, dtype=np.int64),
        )
        reason = log_kernel_ineligible_reason(
            LogStructuredCache(small_geometry), trace
        )
        assert reason is not None and "empty trace" in reason

    def test_ineligible_combination_falls_back_identically(
        self, small_geometry
    ):
        """kernel="columnar" on a non-Log engine replays through the
        batched loop (fed the precomputed offset column), identically."""
        trace = _mixed_trace()
        reference = replay(SetAssociativeCache(small_geometry), trace)
        fallback = replay(
            SetAssociativeCache(small_geometry), trace, kernel="columnar"
        )
        _assert_results_identical(fallback, reference)

    def test_unknown_kernel_rejected(self, small_geometry):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            replay(
                LogStructuredCache(small_geometry),
                _mixed_trace(),
                kernel="bogus",
            )
