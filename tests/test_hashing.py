"""Unit + property tests for the shared hashing primitives."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.hashing import hash64, splitmix64, splitmix64_array


class TestSplitmix:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_known_nonzero(self):
        assert splitmix64(0) != 0

    def test_stays_in_64_bits(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= splitmix64(x) < 2**64

    def test_seeded_hashes_differ(self):
        assert hash64(123, seed=0) != hash64(123, seed=1)


class TestBuckets:
    """Engines place a key at ``hash64(key, seed) % buckets``."""

    def test_bucket_in_range(self):
        for key in range(1000):
            assert 0 <= hash64(key) % 37 < 37

    def test_buckets_roughly_uniform(self):
        counts = np.bincount(
            [hash64(k, 17) % 16 for k in range(16_000)], minlength=16
        )
        # Each bucket should get 1000 +- 15 %.
        assert counts.min() > 850
        assert counts.max() < 1150


class TestVectorised:
    def test_matches_scalar(self):
        keys = np.arange(100, dtype=np.int64)
        vec = splitmix64_array(keys, seed=5)
        for i in range(100):
            assert int(vec[i]) == hash64(i, seed=5)

    def test_empty_array(self):
        assert splitmix64_array(np.array([], dtype=np.int64)).size == 0


@given(st.integers(0, 2**64 - 1))
def test_splitmix_is_injective_locally(x):
    """Consecutive inputs never collide (splitmix64 is a bijection)."""
    assert splitmix64(x) != splitmix64((x + 1) & (2**64 - 1))


@given(st.integers(0, 2**62), st.integers(1, 10_000))
def test_bucket_always_in_range(key, n):
    assert 0 <= hash64(key) % n < n
