"""Unit tests for experiment helper functions (no full replays)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig08_hash_skew import _WINDOW, _first_occurrences
from repro.experiments.fig14_wa_trend import _first_knee
from repro.experiments.fig19_pbfg import set_access_top_share
from repro.experiments.fig12_wa_main import PAPER_WA, build_engines
from repro.experiments.fig17_sg_breakdown import PAPER_FILL, variant_configs
from repro.experiments.common import geometry


class TestFirstOccurrences:
    @settings(max_examples=30, deadline=None)
    @given(
        num_keys=st.integers(1, 3 * _WINDOW),
        length=st.integers(1, 3 * _WINDOW + 7),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_equals_whole_trace_unique(self, num_keys, length, seed):
        """Windowed against a seen-map, the positions are the ones a
        whole-trace ``np.unique`` finds, including keys whose first and
        later requests sit in different windows."""
        keys = np.random.default_rng(seed).integers(0, num_keys, size=length)
        expected = np.sort(np.unique(keys, return_index=True)[1])
        assert np.array_equal(_first_occurrences(keys, num_keys), expected)


class TestFirstKnee:
    def test_finds_crossing(self):
        series = [(100, 1.0), (200, 1.5), (300, 2.5), (400, 6.0)]
        assert _first_knee(series, threshold=2.0) == 300

    def test_no_crossing_is_nan(self):
        series = [(100, 1.0), (200, 1.2)]
        assert np.isnan(_first_knee(series))

    def test_skips_nan_samples(self):
        series = [(100, float("nan")), (200, 3.0)]
        assert _first_knee(series) == 200


class TestSetAccessShare:
    def test_uniform_keys_give_top_fraction(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 2**60, size=200_000)
        share = set_access_top_share(keys, num_offsets=256, top_fraction=0.3)
        assert share == pytest.approx(0.3, abs=0.03)

    def test_skewed_keys_concentrate(self):
        # 80 % of accesses from 100 keys: heavy offset concentration.
        rng = np.random.default_rng(1)
        hot = rng.integers(0, 100, size=80_000)
        cold = rng.integers(0, 2**60, size=20_000)
        keys = np.concatenate([hot, cold])
        share = set_access_top_share(keys, num_offsets=256, top_fraction=0.3)
        assert share > 0.6


class TestExperimentTables:
    def test_fig12_engines_cover_table4(self):
        engines = build_engines(geometry(12))
        assert [e.name for e in engines] == ["Log", "Set", "FW", "KG", "Nemo"]
        assert set(PAPER_WA) == {e.name for e in engines}

    def test_fig17_variant_grid(self):
        names = [name for name, _ in variant_configs()]
        assert names == ["naive", "B", "P", "B+P", "B+P+W"]
        assert set(PAPER_FILL) == set(names)
        for name, cfg in variant_configs():
            assert cfg.enable_writeback == (name == "B+P+W")
