"""Unit + property tests for the consistent-hash router."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.router import ConsistentHashRouter
from repro.errors import ConfigError
from repro.workloads.zipf import ZipfGenerator


def _keys(n=20_000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**62, size=n, dtype=np.int64)


def _load_profile(router, keys):
    """Request count per shard, in ``router.shard_ids`` order."""
    owners = router.route_array(keys)
    return [int(np.count_nonzero(owners == s)) for s in router.shard_ids]


@functools.cache
def _zipf_mix_keys():
    """Request keys of a moderately skewed mix: 50,000 Zipf draws over
    each of three disjoint 20,000-key ranges at alpha 0.85 / 0.95 / 1.05
    (alpha <= 1.05: a hotter rank-1 key pins its shard, which is a
    workload property, not a routing one)."""
    return np.concatenate(
        [
            ZipfGenerator(20_000, alpha, seed=i).sample(50_000) + i * 20_000
            for i, alpha in enumerate((0.85, 0.95, 1.05))
        ]
    )


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            ConsistentHashRouter([])

    def test_rejects_duplicates(self):
        with pytest.raises(ConfigError):
            ConsistentHashRouter([0, 1, 1])

    def test_rejects_negative_ids(self):
        with pytest.raises(ConfigError):
            ConsistentHashRouter([-1, 0])

    def test_shard_ids_sorted(self):
        router = ConsistentHashRouter([3, 0, 2])
        assert router.shard_ids == (0, 2, 3)


class TestRouting:
    def test_all_owners_valid(self):
        router = ConsistentHashRouter(range(5), seed=3)
        owners = router.route_array(_keys())
        assert set(np.unique(owners)) <= set(router.shard_ids)


class TestProperties:
    """Hypothesis properties: the router's three contracts."""

    @given(seed=st.integers(0, 2**32 - 1), num_shards=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_placement_stable_under_fixed_seed(self, seed, num_shards):
        """Same (shard set, seed) -> identical placement."""
        keys = _keys(2_000, seed=1)
        a = ConsistentHashRouter(range(num_shards), seed=seed)
        b = ConsistentHashRouter(range(num_shards), seed=seed)
        assert np.array_equal(a.route_array(keys), b.route_array(keys))

    @given(seed=st.integers(0, 2**32 - 1), num_shards=st.integers(2, 8))
    @example(seed=0, num_shards=8)  # ClusterConfig's defaults at 8 shards
    @settings(max_examples=15, deadline=None)
    def test_balanced_within_tolerance(self, seed, num_shards):
        """No shard holds more than twice its fair share of random keys.

        128 vnodes/shard bounds the relative spread well under 2x; the
        loose factor keeps the property stable across arbitrary seeds.

        On a skewed request mix the bound is the cluster's scaling
        floor: capacity is requests over the busiest shard's share (one
        core per shard), and it must grow at >= 3/8 of linear — 8 shards
        serve >= 3x what one does (5.41x at the pinned example).
        """
        keys = _keys(num_shards * 4_000, seed=2)
        router = ConsistentHashRouter(range(num_shards), seed=seed)
        profile = _load_profile(router, keys)
        fair = len(keys) / num_shards
        assert max(profile) < 2.0 * fair
        assert min(profile) > 0

        mix = _zipf_mix_keys()
        busiest = max(_load_profile(router, mix))
        assert len(mix) / busiest >= 3 / 8 * num_shards

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_shards=st.integers(2, 8),
        removed_index=st.integers(0, 7),
    )
    @settings(max_examples=15, deadline=None)
    def test_removal_remaps_only_removed_shards_keys(
        self, seed, num_shards, removed_index
    ):
        """Dropping one shard moves only the keys that shard owned."""
        removed = removed_index % num_shards
        keys = _keys(5_000, seed=3)
        router = ConsistentHashRouter(range(num_shards), seed=seed)
        shrunk = ConsistentHashRouter(
            [s for s in range(num_shards) if s != removed], seed=seed
        )
        before = router.route_array(keys)
        after = shrunk.route_array(keys)
        surviving = before != removed
        assert np.array_equal(before[surviving], after[surviving])
        assert not np.any(after == removed)
