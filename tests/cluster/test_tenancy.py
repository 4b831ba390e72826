"""Tenant key namespacing: ``tenant_id << 48 | local_key``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.workloads.multitenant import (
    MAX_TENANT_ID,
    TENANT_KEY_BITS,
    namespace_keys,
)


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
