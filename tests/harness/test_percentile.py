"""Unit + property tests for latency percentile tracking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.harness.percentile import LatencyRecorder, StreamingQuantile


class TestLatencyRecorder:
    def test_empty_is_nan(self):
        rec = LatencyRecorder()
        assert np.isnan(rec.percentile(50))
        assert np.isnan(rec.mean())

    def test_exact_percentiles(self):
        rec = LatencyRecorder()
        for v in range(1, 101):
            rec.record(float(v))
        assert rec.percentile(50) == pytest.approx(50.5)
        assert rec.percentile(99) == pytest.approx(99.01, abs=0.1)

    def test_percentiles_batch(self):
        rec = LatencyRecorder()
        for v in (1.0, 2.0, 3.0):
            rec.record(v)
        p = rec.percentiles([0.0, 100.0])
        assert p[0.0] == 1.0
        assert p[100.0] == 3.0

    def test_windows(self):
        rec = LatencyRecorder()
        for v in (1.0, 1.0, 1.0):
            rec.record(v)
        rec.mark_window()
        for v in (9.0, 9.0, 9.0):
            rec.record(v)
        before, after = rec.window_percentiles([50.0])
        assert before[50.0] == 1.0
        assert after[50.0] == 9.0

    def test_empty_window_is_nan(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        rec.mark_window()
        windows = rec.window_percentiles([50.0])
        assert windows[0][50.0] == 1.0
        assert np.isnan(windows[1][50.0])

    def test_len(self):
        rec = LatencyRecorder()
        rec.record(1.0)
        assert len(rec) == 1

    def test_record_many_matches_record_loop(self):
        bulk = LatencyRecorder()
        scalar = LatencyRecorder()
        values = [3.0, 1.0, 2.0, 2.0]
        bulk.record_many(values)
        for v in values:
            scalar.record(v)
        assert bulk._values == scalar._values
        assert bulk._window_bounds == scalar._window_bounds


class TestLatencyRecorderMerge:
    def test_merge_concatenates_within_windows(self):
        a = LatencyRecorder()
        a.record_many([1.0, 2.0])
        a.mark_window()
        a.record_many([3.0])
        b = LatencyRecorder()
        b.record_many([10.0])
        b.mark_window()
        b.record_many([20.0, 30.0])
        a.merge(b)
        assert list(a._values) == [1.0, 2.0, 10.0, 3.0, 20.0, 30.0]
        assert a._window_bounds == [0, 3]

    def test_merge_with_missing_windows(self):
        a = LatencyRecorder()
        a.record_many([1.0])
        b = LatencyRecorder()
        b.record_many([2.0])
        b.mark_window()
        b.record_many([3.0])
        a.merge(b)
        # a has one window, b two: window 0 merges both first windows,
        # window 1 holds only b's tail.
        assert list(a._values) == [1.0, 2.0, 3.0]
        assert a._window_bounds == [0, 2]

    def test_merge_empty_into_empty(self):
        a = LatencyRecorder()
        a.merge(LatencyRecorder())
        assert len(a) == 0
        assert np.isnan(a.percentile(50))


_samples = st.lists(
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=80,
)


def _build(windows: list[list[float]]) -> LatencyRecorder:
    rec = LatencyRecorder()
    for i, window in enumerate(windows):
        if i:
            rec.mark_window()
        rec.record_many(window)
    return rec


@settings(max_examples=100, deadline=None)
@given(
    a_windows=st.lists(_samples, min_size=1, max_size=4),
    b_windows=st.lists(_samples, min_size=1, max_size=4),
    qs=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=3),
)
def test_merge_matches_numpy_on_concatenated_samples(a_windows, b_windows, qs):
    """Merged percentiles == numpy over the window-wise concatenations."""
    merged = _build(a_windows)
    merged.merge(_build(b_windows))

    n_windows = max(len(a_windows), len(b_windows))
    concat = [
        (a_windows[w] if w < len(a_windows) else [])
        + (b_windows[w] if w < len(b_windows) else [])
        for w in range(n_windows)
    ]

    flat = [v for chunk in concat for v in chunk]
    for q in qs:
        expected = float(np.percentile(flat, q)) if flat else float("nan")
        got = merged.percentile(q)
        assert got == expected or (np.isnan(got) and np.isnan(expected))

    per_window = merged.window_percentiles(qs)
    assert len(per_window) == n_windows
    for chunk, got_dict in zip(concat, per_window):
        for q in qs:
            expected = float(np.percentile(chunk, q)) if chunk else float("nan")
            got = got_dict[q]
            assert got == expected or (np.isnan(got) and np.isnan(expected))


class TestStreamingQuantile:
    def test_rejects_bad_q(self):
        for q in (0.0, 1.0, -0.1):
            with pytest.raises(ConfigError):
                StreamingQuantile(q)

    def test_empty_is_nan(self):
        assert np.isnan(StreamingQuantile(0.5).value)

    def test_small_samples_exact(self):
        sq = StreamingQuantile(0.5)
        for v in (1.0, 5.0, 3.0):
            sq.add(v)
        assert sq.value == 3.0

    def test_median_of_uniform(self):
        rng = np.random.default_rng(0)
        sq = StreamingQuantile(0.5)
        data = rng.random(20_000)
        for v in data:
            sq.add(float(v))
        assert sq.value == pytest.approx(0.5, abs=0.02)

    def test_p99_of_exponential(self):
        rng = np.random.default_rng(1)
        sq = StreamingQuantile(0.99)
        data = rng.exponential(1.0, 50_000)
        for v in data:
            sq.add(float(v))
        assert sq.value == pytest.approx(np.percentile(data, 99), rel=0.1)


@settings(max_examples=20, deadline=None)
@given(
    data=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=50, max_size=500),
    q=st.sampled_from([0.25, 0.5, 0.9]),
)
def test_p2_stays_within_sample_range(data, q):
    sq = StreamingQuantile(q)
    for v in data:
        sq.add(v)
    assert min(data) <= sq.value <= max(data)
