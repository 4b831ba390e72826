"""Unit tests for the §3 write-amplification model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.wa_model import (
    HierarchicalModel,
    conditional_poisson_mean,
    expected_bucket_len,
    fairywren_wa,
    l2swa,
    l2swa_active,
    l2swa_passive,
    nemo_wa,
)
from repro.errors import ConfigError


class TestPaperNumbers:
    """The paper's own instantiations of Eqs. 5-9."""

    def test_eq6_log5_op5(self):
        """§3.2.1: theoretical L2SWA(P) ≈ 9 at Log5/Set95, OP 5 %."""
        assert l2swa_passive(0.95, 0.05, 0.05) == pytest.approx(9.025)

    def test_eq8_at_p25(self):
        """§3.2.2: (2 − 0.25)·9 ≈ 15.75 matches the measured 14.2-15."""
        assert l2swa(0.95, 0.05, 0.05, 0.25) == pytest.approx(15.79, abs=0.01)

    def test_active_is_twice_passive(self):
        assert l2swa_active(0.95, 0.05, 0.05) == pytest.approx(
            2 * l2swa_passive(0.95, 0.05, 0.05)
        )

    def test_kangaroo_hash_range_doubles_l2swa(self):
        fw = l2swa_passive(0.95, 0.05, 0.05, fairywren=True)
        kg = l2swa_passive(0.95, 0.05, 0.05, fairywren=False)
        assert kg == pytest.approx(2 * fw)

    def test_eq1_total(self):
        total = fairywren_wa(0.95, 0.05, 0.05, 0.25, log_fill_rate=1.0)
        assert total == pytest.approx(1.0 + 15.79, abs=0.02)

    def test_eq9_nemo(self):
        """§5.2: 1/0.6413 ≈ 1.56."""
        assert nemo_wa(0.6413) == pytest.approx(1.56, abs=0.01)

    def test_more_op_lowers_passive_l2swa(self):
        assert l2swa_passive(0.95, 0.05, 0.5) < l2swa_passive(0.95, 0.05, 0.05)


class TestValidation:
    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            l2swa_passive(0.95, 0.0, 0.05)
        with pytest.raises(ConfigError):
            l2swa_passive(0.95, 0.05, 1.0)
        with pytest.raises(ConfigError):
            l2swa(0.95, 0.05, 0.05, 1.5)
        with pytest.raises(ConfigError):
            nemo_wa(0.0)
        with pytest.raises(ConfigError):
            nemo_wa(1.5)
        with pytest.raises(ConfigError):
            expected_bucket_len(0, 1, 1, 1)
        with pytest.raises(ConfigError):
            conditional_poisson_mean(0)
        with pytest.raises(ConfigError):
            fairywren_wa(0.95, 0.05, 0.05, 0.2, log_fill_rate=0.0)


class TestConditionalMean:
    def test_large_lambda_unconditional(self):
        assert conditional_poisson_mean(20.0) == pytest.approx(20.0, rel=1e-6)

    def test_small_lambda_tends_to_one(self):
        assert conditional_poisson_mean(0.01) == pytest.approx(1.0, abs=0.01)

    def test_always_at_least_lambda_and_one(self):
        for lam in (0.1, 0.5, 1.0, 2.0, 5.0):
            m = conditional_poisson_mean(lam)
            assert m >= lam
            assert m >= 1.0


class TestBundledModel:
    @pytest.fixture
    def model(self):
        return HierarchicalModel(
            page_size=4096,
            object_size=246.0,
            n_log_pages=1000,
            n_set_pages=19_000,
            op_ratio=0.05,
            fairywren=True,
        )

    def test_bucket_count(self, model):
        assert model.num_buckets == pytest.approx(19_000 * 0.95 / 2)

    def test_expected_bucket_len(self, model):
        expected = (4096 / 246) * 1000 / model.num_buckets
        assert model.expected_bucket_len == pytest.approx(expected)

    def test_l2swa_consistency(self, model):
        assert model.l2swa(1.0) == pytest.approx(model.l2swa_passive)
        assert model.l2swa(0.0) == pytest.approx(model.l2swa_active)

    def test_measured_means_bracket_truth(self, model):
        assert model.measured_passive_mean_objects >= model.expected_bucket_len
        assert model.measured_active_mean_objects == pytest.approx(
            model.expected_bucket_len / 2
        )


@given(
    n_set=st.floats(0.1, 100.0),
    n_log=st.floats(0.01, 10.0),
    op=st.floats(0.0, 0.9),
    p=st.floats(0.0, 1.0),
)
def test_l2swa_monotone_in_p(n_set, n_log, op, p):
    """More passive share always means less blended L2SWA (Eq. 8)."""
    base = l2swa(n_set, n_log, op, p)
    more_passive = l2swa(n_set, n_log, op, min(1.0, p + 0.1))
    assert more_passive <= base + 1e-9
