"""Unit tests for metric series and windowed rates."""

import pytest

from repro.errors import ConfigError
from repro.harness.metrics import MetricSeries, WindowedRate


class TestMetricSeries:
    def test_record_and_last(self):
        s = MetricSeries("wa")
        s.record(1, 2.0)
        s.record(2, 3.0)
        assert len(s) == 2
        assert s.as_rows() == [(1, 2.0), (2, 3.0)]

    def test_out_of_order_rejected(self):
        s = MetricSeries("x")
        s.record(5, 1.0)
        with pytest.raises(ConfigError):
            s.record(4, 1.0)


class TestWindowedRate:
    def test_buckets_by_window(self):
        wr = WindowedRate(window=60.0)
        wr.update(0.0, 0)
        wr.update(59.0, 100)
        wr.update(61.0, 150)
        assert len(wr.rates) == 1
        t, delta = wr.rates[0]
        assert t == 60.0
        assert delta == 150  # counter value when the window closed

    def test_multiple_windows_at_once(self):
        wr = WindowedRate(window=10.0)
        wr.update(0.0, 0)
        wr.update(35.0, 300)
        assert len(wr.rates) == 3

    def test_finish_scales_partial_window(self):
        wr = WindowedRate(window=60.0)
        wr.update(0.0, 0)
        wr.update(30.0, 100)
        wr.finish(30.0)
        t, delta = wr.rates[-1]
        assert delta == pytest.approx(200.0)  # 100 bytes in half a window

    def test_zero_window_rejected(self):
        with pytest.raises(ConfigError):
            WindowedRate(0)

    def test_finish_without_updates_is_noop(self):
        wr = WindowedRate(60.0)
        wr.finish(100.0)
        assert wr.rates == []
