"""Unit + property tests for latency percentile tracking."""

import numpy as np
import pytest

from repro.harness.percentile import LatencyRecorder


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
