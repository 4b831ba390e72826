"""Unit tests for the synthetic Twitter cluster generators (Table 5)."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.errors import TraceError
from repro.workloads.trace import OP_GET, OP_SET
from repro.workloads.twitter import (
    TWITTER_CLUSTERS,
    generate_cluster_trace,
)
from repro.workloads.zipf import BLOCK_KEYS


class TestSpecs:
    def test_table5_clusters_present(self):
        assert set(TWITTER_CLUSTERS) == {
            "cluster_14",
            "cluster_29",
            "cluster_34",
            "cluster_52",
        }

    def test_table5_values(self):
        c14 = TWITTER_CLUSTERS["cluster_14"]
        assert (c14.key_size, c14.value_size) == (96, 414)
        assert c14.zipf_alpha == pytest.approx(1.2959)
        c52 = TWITTER_CLUSTERS["cluster_52"]
        assert (c52.key_size, c52.value_size) == (20, 273)

    def test_downscales_match_section_5_1(self):
        assert TWITTER_CLUSTERS["cluster_14"].size_scale == 2.0
        assert TWITTER_CLUSTERS["cluster_29"].size_scale == 3.0
        assert TWITTER_CLUSTERS["cluster_34"].size_scale == 1.0

    def test_scaled_object_size(self):
        c14 = TWITTER_CLUSTERS["cluster_14"]
        assert c14.scaled_object_size == pytest.approx((96 + 414) / 2)

    def test_average_mixed_size_is_tiny(self):
        """§5.1 targets ~246 B; the spec means land within ~25 %."""
        specs = TWITTER_CLUSTERS.values()
        mean = sum(s.scaled_object_size for s in specs) / len(specs)
        assert 200 < mean < 320


class TestGeneration:
    def test_deterministic(self):
        a = generate_cluster_trace("cluster_52", num_requests=1000, seed=5)
        b = generate_cluster_trace("cluster_52", num_requests=1000, seed=5)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.sizes, b.sizes)

    def test_unknown_cluster_rejected(self):
        with pytest.raises(TraceError):
            generate_cluster_trace("cluster_99", num_requests=10)

    def test_bad_args_rejected(self):
        with pytest.raises(TraceError):
            generate_cluster_trace("cluster_52", num_requests=0)
        with pytest.raises(TraceError):
            generate_cluster_trace("cluster_52", num_requests=10, get_fraction=1.5)
        with pytest.raises(TraceError):
            generate_cluster_trace("cluster_52", num_requests=10, wss_scale=0)

    def test_sizes_stable_per_key(self):
        """A key always presents the same object size."""
        t = generate_cluster_trace("cluster_34", num_requests=20_000, seed=1)
        sizes_by_key: dict[int, int] = {}
        for key, size in zip(t.keys, t.sizes):
            assert sizes_by_key.setdefault(int(key), int(size)) == int(size)

    def test_mean_size_matches_spec(self):
        spec = TWITTER_CLUSTERS["cluster_34"]
        t = generate_cluster_trace(spec, num_requests=30_000, seed=2)
        assert t.mean_object_size == pytest.approx(spec.scaled_object_size, rel=0.15)

    def test_get_fraction(self):
        t = generate_cluster_trace(
            "cluster_52", num_requests=20_000, get_fraction=0.9, seed=3
        )
        mix = t.op_mix()
        assert mix["get"] == pytest.approx(0.9, abs=0.02)

    def test_key_base_offsets_key_space(self):
        t = generate_cluster_trace(
            "cluster_52", num_requests=1000, key_base=10_000, seed=4
        )
        assert t.keys.min() >= 10_000

    def test_wss_scales_key_universe(self):
        small = generate_cluster_trace(
            "cluster_52", num_requests=100, wss_scale=1 / 4096, seed=0
        )
        large = generate_cluster_trace(
            "cluster_52", num_requests=100, wss_scale=1 / 256, seed=0
        )
        assert large.meta["cluster_num_keys"] > small.meta["cluster_num_keys"]

    def test_ops_are_gets_and_sets_only(self):
        t = generate_cluster_trace("cluster_14", num_requests=5000, seed=6)
        assert set(np.unique(t.ops)) <= {OP_GET, OP_SET}


def test_sha256_at_non_default_seed_and_sigma():
    """One cluster is pinned byte for byte away from the defaults the
    merged-trace pins use: seed, sigma, key base and a size downscale."""
    t = generate_cluster_trace(
        "cluster_29",
        num_requests=40_000,
        wss_scale=1 / 512,
        seed=17,
        sigma=0.7,
        key_base=1000,
    )
    assert t.num_keys == 299_150
    h = hashlib.sha256()
    for column in (t.ops, t.keys, t.sizes):
        h.update(column.tobytes())
    assert h.hexdigest()[:12] == "3245a9864c39"


def test_traced_peak_is_the_4_byte_permutation_per_key():
    """Generation holds one key-universe array, the 4-byte-per-key
    rank-to-key permutation, plus two 8-byte blocks of the blocked CDF
    and size table, plus O(num_requests).  A whole-universe ``float64``
    CDF or size table alone would be 8 B per key."""
    num_requests = 20_000
    tracemalloc.start()
    try:
        t = generate_cluster_trace(
            "cluster_29", num_requests=num_requests, wss_scale=1 / 64
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    num_keys = t.meta["cluster_num_keys"]
    assert num_keys > 100 * num_requests
    assert peak <= 4 * num_keys + 2 * 8 * BLOCK_KEYS + 64 * num_requests
