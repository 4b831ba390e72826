"""Unit tests for report formatting helpers."""

from collections import Counter

import math

from repro.harness.report import (
    cdf_from_counter,
    format_table,
    mean_from_counter,
)


class TestTables:
    def test_alignment(self):
        out = format_table(["name", "value"], [["a", 1.5], ["long-name", 22.0]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_float_formatting(self):
        out = format_table(["x"], [[1.23456]], float_fmt="{:.1f}")
        assert "1.2" in out

    def test_non_float_cells_passthrough(self):
        out = format_table(["x"], [["abc"], [7]])
        assert "abc" in out and "7" in out


class TestCDF:
    def test_points_monotone(self):
        hist = Counter({1: 5, 2: 3, 4: 2})
        cdf = cdf_from_counter(hist)
        assert cdf == [(1, 0.5), (2, 0.8), (4, 1.0)]

    def test_empty(self):
        assert cdf_from_counter(Counter()) == []

    def test_mean(self):
        hist = Counter({1: 1, 3: 1})
        assert mean_from_counter(hist) == 2.0
        assert math.isnan(mean_from_counter(Counter()))
