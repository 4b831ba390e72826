"""Unit tests for per-key object-size models."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.workloads.sizes import LogNormalSizeModel, NormalSizeModel


def whole_table(model, num_keys, rng):
    """The size table as one universe-sized draw: the reference the
    blocked ``sizes_of`` must equal byte for byte."""
    if isinstance(model, NormalSizeModel):
        sizes = rng.normal(model.mean, model.std, size=num_keys)
    else:
        mu = np.log(model.mean) - model.sigma**2 / 2.0
        sizes = rng.lognormal(mu, model.sigma, size=num_keys)
    np.rint(sizes, out=sizes)
    np.maximum(sizes, model.minimum, out=sizes)
    return sizes.astype(np.int64)


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


class TestSizesOf:
    @settings(max_examples=40, deadline=None)
    @given(
        num_keys=st.sampled_from([1, 2, 7, 65_535, 65_536, 65_537, 131_081]),
        lognormal=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
        data=st.data(),
    )
    @example(num_keys=4_770_393, lognormal=True, seed=0, data=None)
    def test_equals_whole_table_and_leaves_rng_the_same(
        self, num_keys, lognormal, seed, data
    ):
        model = (
            LogNormalSizeModel(799, sigma=0.45, minimum=8)
            if lognormal
            else NormalSizeModel(250, 200)
        )
        count = 50_000 if data is None else data.draw(st.integers(0, 3000))
        keys = np.random.default_rng(seed).integers(0, num_keys, size=count)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = model.sizes_of(keys, num_keys, rng)
        expected = whole_table(model, num_keys, ref_rng)[keys]
        assert got.dtype == np.int64
        assert got.tobytes() == expected.tobytes()
        assert rng.random() == ref_rng.random()

    def test_build_table_equals_whole_table(self):
        model = NormalSizeModel(250, 200)
        table = model.build_table(70_000, np.random.default_rng(3))
        assert np.array_equal(
            table, whole_table(model, 70_000, np.random.default_rng(3))
        )

    @pytest.mark.parametrize("key", [-1, 10, 11])
    def test_out_of_range_key_rejected(self, key):
        """A negative key used to wrap to the end of the table, and one
        past it raised a bare IndexError."""
        keys = np.array([0, key, 9], dtype=np.int64)
        with pytest.raises(TraceError, match="keys must lie in"):
            LogNormalSizeModel(300).sizes_of(keys, 10, np.random.default_rng(0))
