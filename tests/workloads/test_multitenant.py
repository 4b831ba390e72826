"""Multi-tenant trace generation: determinism, shares, namespacing."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError, TraceError
from repro.workloads.multitenant import (
    MAX_TENANT_ID,
    TENANT_KEY_BITS,
    TenantSpec,
    multi_tenant_trace,
    namespace_keys,
)
from repro.workloads.trace import OP_GET


def _specs():
    return [
        TenantSpec(name="hot", zipf_alpha=1.3, num_keys=500),
        TenantSpec(
            name="warm",
            zipf_alpha=0.9,
            num_keys=1_000,
            request_share=3.0,
        ),
    ]


class TestSpecValidation:
    def test_rejects_empty_name(self):
        with pytest.raises(TraceError):
            TenantSpec(name="")

    def test_rejects_bad_share(self):
        with pytest.raises(TraceError):
            TenantSpec(name="t", request_share=0)

    def test_rejects_bad_get_fraction(self):
        with pytest.raises(TraceError):
            TenantSpec(name="t", get_fraction=1.5)


class TestGeneration:
    def test_deterministic(self):
        a = multi_tenant_trace(_specs(), num_requests=4_000, seed=5)
        b = multi_tenant_trace(_specs(), num_requests=4_000, seed=5)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.ops, b.ops)
        assert np.array_equal(a.sizes, b.sizes)

    def test_seed_changes_trace(self):
        a = multi_tenant_trace(_specs(), num_requests=4_000, seed=5)
        b = multi_tenant_trace(_specs(), num_requests=4_000, seed=6)
        assert not np.array_equal(a.keys, b.keys)

    def test_request_share_split(self):
        trace = multi_tenant_trace(_specs(), num_requests=4_000)
        tenants = trace.keys >> TENANT_KEY_BITS
        assert int(np.count_nonzero(tenants == 1)) == 1_000
        assert int(np.count_nonzero(tenants == 2)) == 3_000
        assert trace.meta["tenant_requests"] == {"hot": 1_000, "warm": 3_000}

    def test_keys_namespaced_by_position(self):
        trace = multi_tenant_trace(_specs(), num_requests=2_000)
        assert trace.meta["tenants"] == {"hot": 1, "warm": 2}
        assert set(np.unique(trace.keys >> TENANT_KEY_BITS)) == {1, 2}

    def test_get_fraction_respected(self):
        specs = [TenantSpec(name="ro", get_fraction=1.0, num_keys=100)]
        trace = multi_tenant_trace(specs, num_requests=1_000)
        assert np.all(trace.ops == OP_GET)

    def test_total_key_space(self):
        trace = multi_tenant_trace(_specs(), num_requests=2_000)
        assert trace.num_keys == 1_500

    def test_duplicate_names_rejected(self):
        specs = [TenantSpec(name="x"), TenantSpec(name="x")]
        with pytest.raises(TraceError):
            multi_tenant_trace(specs, num_requests=100)

    def test_too_few_requests_rejected(self):
        with pytest.raises(TraceError):
            multi_tenant_trace(_specs(), num_requests=1)

    def test_empty_specs_rejected(self):
        with pytest.raises(TraceError):
            multi_tenant_trace([], num_requests=100)


class TestNamespacing:
    def test_roundtrip(self):
        keys = np.arange(100, dtype=np.int64)
        spaced = namespace_keys(keys, 7)
        assert list(spaced >> TENANT_KEY_BITS) == [7] * 100
        local_mask = (1 << TENANT_KEY_BITS) - 1
        assert list(spaced & local_mask) == list(range(100))

    def test_distinct_tenants_never_collide(self):
        keys = np.arange(50, dtype=np.int64)
        a = namespace_keys(keys, 1)
        b = namespace_keys(keys, 2)
        assert not set(map(int, a)) & set(map(int, b))

    def test_tenant_zero_is_plain_keyspace(self):
        keys = np.asarray([5, 6], dtype=np.int64)
        assert list(namespace_keys(keys, 0)) == [5, 6]

    def test_rejects_out_of_range_tenant(self):
        keys = np.asarray([1], dtype=np.int64)
        with pytest.raises(ConfigError):
            namespace_keys(keys, MAX_TENANT_ID + 1)
        with pytest.raises(ConfigError):
            namespace_keys(keys, -1)

    def test_rejects_local_key_overflow(self):
        keys = np.asarray([1 << TENANT_KEY_BITS], dtype=np.int64)
        with pytest.raises(ConfigError):
            namespace_keys(keys, 1)


def test_sha256_of_three_tenant_mix():
    """Pinned byte for byte: unequal universes, shares (30,001 requests
    split by largest remainder), sigmas, key sizes and GET fractions."""
    specs = [
        TenantSpec(name="hot", zipf_alpha=1.3, num_keys=5_000),
        TenantSpec(
            name="warm",
            zipf_alpha=0.9,
            num_keys=20_000,
            mean_value_size=500,
            size_sigma=0.8,
            get_fraction=0.9,
            request_share=3.0,
        ),
        TenantSpec(
            name="cold", zipf_alpha=0.6, num_keys=40_000, key_size=16, request_share=0.5
        ),
    ]
    trace = multi_tenant_trace(specs, num_requests=30_001, seed=3)
    h = hashlib.sha256()
    for column in (trace.ops, trace.keys, trace.sizes):
        h.update(column.tobytes())
    assert h.hexdigest()[:12] == "2abefc4074cc"
