"""Unit tests for NemoConfig validation and ablation helpers."""

import pytest

from repro.core.config import INMEM_SGS, NemoConfig
from repro.errors import ConfigError


class TestValidation:
    def test_defaults_match_table3(self):
        cfg = NemoConfig()
        assert INMEM_SGS == cfg.effective_inmem_sgs == 2
        # Table 3's p_th (4,096) and 50 SGs per index group, rescaled to
        # MiB-scale SGs and pools (see the field comments).
        assert (cfg.flush_threshold, cfg.sgs_per_index_group) == (8, 4)
        assert cfg.bf_false_positive_rate == 0.001
        assert cfg.cached_index_ratio == 0.5
        assert cfg.hotness_window_fraction == 0.3
        assert cfg.cooling_interval_fraction == 0.1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("flush_threshold", 0),
            ("bf_false_positive_rate", 0.0),
            ("bf_false_positive_rate", 1.0),
            ("bf_capacity_per_set", 0),
            ("sgs_per_index_group", 0),
            ("cached_index_ratio", -0.1),
            ("cached_index_ratio", 1.1),
            ("hotness_window_fraction", 1.2),
            ("cooling_interval_fraction", 0.0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            NemoConfig(**{field: value})


class TestAblation:
    def test_effective_queue_depth(self):
        assert NemoConfig().effective_inmem_sgs == INMEM_SGS
        assert NemoConfig(enable_buffered_sgs=False).effective_inmem_sgs == 1

    def test_ablation_grid(self):
        cfg = NemoConfig.ablation(buffered=False, delayed=True, writeback=False)
        assert not cfg.enable_buffered_sgs
        assert cfg.enable_delayed_flush
        assert not cfg.enable_writeback

    def test_ablation_passes_overrides(self):
        cfg = NemoConfig.ablation(
            buffered=True, delayed=True, writeback=True, flush_threshold=7
        )
        assert cfg.flush_threshold == 7
