"""Unit tests for per-key object-size models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.workloads.sizes import LogNormalSizeModel, NormalSizeModel


class TestNormal:
    def test_respects_minimum(self):
        table = NormalSizeModel(100, 300, minimum=32).build_table(
            5000, np.random.default_rng(1)
        )
        assert table.min() >= 32

    def test_mean_near_parameter(self):
        table = NormalSizeModel(250, 50).build_table(20_000, np.random.default_rng(2))
        assert table.mean() == pytest.approx(250, rel=0.05)

    def test_rejects_bad_params(self):
        with pytest.raises(TraceError):
            NormalSizeModel(-1, 10)
        with pytest.raises(TraceError):
            NormalSizeModel(100, -1)
        with pytest.raises(TraceError):
            NormalSizeModel(100, 10, minimum=0)


class TestLogNormal:
    def test_mean_targets_parameter(self):
        table = LogNormalSizeModel(400, sigma=0.5).build_table(
            50_000, np.random.default_rng(3)
        )
        assert table.mean() == pytest.approx(400, rel=0.05)

    def test_right_skewed(self):
        table = LogNormalSizeModel(300, sigma=0.8).build_table(
            50_000, np.random.default_rng(4)
        )
        assert np.median(table) < table.mean()

    def test_rejects_bad_params(self):
        with pytest.raises(TraceError):
            LogNormalSizeModel(0)
        with pytest.raises(TraceError):
            LogNormalSizeModel(100, sigma=-0.1)


@settings(max_examples=20, deadline=None)
@given(mean=st.floats(50, 2000), sigma=st.floats(0.0, 1.0))
def test_lognormal_tables_are_positive_ints(mean, sigma):
    table = LogNormalSizeModel(mean, sigma=sigma).build_table(
        200, np.random.default_rng(0)
    )
    assert table.dtype == np.int64
    assert table.min() >= 1
