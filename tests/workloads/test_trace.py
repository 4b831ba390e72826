"""Unit tests for the Trace container."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.hashing import hash64
from repro.workloads.trace import OP_GET, OP_SET, Trace


def make_trace(n=10):
    return Trace(
        ops=np.full(n, OP_GET, dtype=np.uint8),
        keys=np.arange(n),
        sizes=np.full(n, 100),
        name="t",
    )


class TestConstruction:
    def test_length(self):
        assert len(make_trace(7)) == 7

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(TraceError):
            Trace(ops=np.zeros(3, dtype=np.uint8), keys=np.arange(2), sizes=np.ones(3))

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(TraceError):
            Trace(
                ops=np.zeros(2, dtype=np.uint8),
                keys=np.arange(2),
                sizes=np.array([10, 0]),
            )

    def test_num_keys_inferred(self):
        t = make_trace(5)
        assert t.num_keys == 5


class TestStatistics:
    def test_mean_object_size_over_distinct_keys(self):
        t = Trace(
            ops=np.zeros(3, dtype=np.uint8),
            keys=np.array([1, 1, 2]),
            sizes=np.array([100, 100, 300]),
        )
        assert t.mean_object_size == 200.0
        assert t.mean_request_size == pytest.approx(500 / 3)

    def test_working_set_counts_each_key_once(self):
        t = Trace(
            ops=np.zeros(4, dtype=np.uint8),
            keys=np.array([1, 1, 2, 2]),
            sizes=np.array([100, 100, 300, 300]),
        )
        assert t.working_set_bytes == 400
        assert t.unique_key_count == 2

    def test_op_mix(self):
        t = Trace(
            ops=np.array([OP_GET, OP_GET, OP_SET], dtype=np.uint8),
            keys=np.arange(3),
            sizes=np.ones(3),
        )
        mix = t.op_mix()
        assert mix["get"] == pytest.approx(2 / 3)
        assert mix["set"] == pytest.approx(1 / 3)

    def test_describe_has_counts(self):
        assert "10" in make_trace(10).describe()


class TestColumns:
    def test_set_ids_match_scalar_hash(self):
        keys = np.array([0, 1, 7, 2**40, 12345], dtype=np.int64)
        t = Trace(
            ops=np.zeros(5, dtype=np.uint8),
            keys=keys,
            sizes=np.full(5, 100),
        )
        set_ids = t.columns(seed=3, num_sets=37)
        assert set_ids.tolist() == [hash64(int(k), 3) % 37 for k in keys]
        assert t.set_id_slice(3, 37, 1, 4).tolist() == set_ids[1:4].tolist()

    def test_columns_cached_per_spec(self):
        t = make_trace(10)
        a = t.columns(seed=1, num_sets=8)
        assert t.columns(seed=1, num_sets=8) is a
        assert t.columns(seed=2, num_sets=8) is not a
        assert t.columns(seed=1, num_sets=9) is not a

    def test_invalid_specs_rejected(self):
        t = make_trace(4)
        with pytest.raises(TraceError):
            t.columns(seed=0, num_sets=0)

    def test_views_start_with_fresh_kernel_cache(self):
        t = make_trace(10)
        t._kernel_cache["probe"] = object()
        t.columns(seed=0, num_sets=8)
        s = t.slice(0, 5)
        assert s._kernel_cache == {}
        assert s._column_cache == {}


class TestViews:
    def test_slice(self):
        t = make_trace(10)
        s = t.slice(2, 5)
        assert len(s) == 3
        assert list(s.keys) == [2, 3, 4]

    def test_repeat(self):
        t = make_trace(3)
        r = t.repeat(3)
        assert len(r) == 9
        assert list(r.keys[:3]) == list(r.keys[3:6])

    def test_repeat_rejects_zero(self):
        with pytest.raises(TraceError):
            make_trace(2).repeat(0)
