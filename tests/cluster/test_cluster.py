"""Cluster replay: determinism and merge exactness.

The contracts pinned here:

- cluster metrics are a pure function of ``(config, trace)`` — byte
  identical for any ``jobs`` (the 2-job runs exercise the real spawn
  pool, which is why these tests live in a file, not a REPL);
- a 1-shard cluster is *exactly* a serial replay of the same engine on
  the same device (the merge arithmetic adds nothing), for every
  registered engine.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cluster import CacheCluster, ClusterConfig
from repro.cluster.cluster import ZONES_PER_SHARD
from repro.engines import ENGINE_NAMES, geometry, make_engine
from repro.errors import ConfigError
from repro.harness.runner import KERNEL_ENV_VAR, replay
from repro.workloads.mixer import merged_twitter_trace


def _assert_finals_identical(fa, fb, label=""):
    assert fa.keys() == fb.keys(), label
    for key in fa:
        va, vb = fa[key], fb[key]
        assert va == vb or (
            isinstance(va, float)
            and isinstance(vb, float)
            and math.isnan(va)
            and math.isnan(vb)
        ), f"{label}{key}: {va!r} != {vb!r}"


def _assert_results_identical(a, b):
    _assert_finals_identical(a.final, b.final)
    assert a.num_requests == b.num_requests
    assert a.shard_requests == b.shard_requests


def _trace(num_requests=8_000, seed=0):
    return merged_twitter_trace(num_requests=num_requests, seed=seed)


class TestDeterminism:
    def test_jobs_do_not_change_metrics(self):
        """Same seed -> byte-identical merged metrics for any --jobs."""
        trace = _trace()
        config = ClusterConfig(num_shards=4, engine="log")
        serial = CacheCluster(config).replay(trace, jobs=1)
        pooled = CacheCluster(config).replay(trace, jobs=2)
        _assert_results_identical(serial, pooled)

    def test_repeat_run_identical(self):
        trace = _trace()
        config = ClusterConfig(num_shards=3, engine="fw")
        a = CacheCluster(config).replay(trace, jobs=1)
        b = CacheCluster(config).replay(trace, jobs=1)
        _assert_results_identical(a, b)

    def test_nemo_cluster_replays(self):
        """Eight Nemo shards replay a short trace and still merge."""
        trace = _trace(num_requests=2_000)
        config = ClusterConfig(num_shards=8, engine="nemo")
        result = CacheCluster(config).replay(trace, jobs=1)
        assert result.num_requests == 2_000
        assert sum(result.shard_requests) == 2_000


class TestShardPlacementColumns:
    """Each shard hashes its own sub-trace's keys.  Shards replay on the
    runner's default lane, so ``REPRO_REPLAY_KERNEL`` sends them down
    the columnar one."""

    def test_shards_hash_disjoint_subtraces(self, monkeypatch):
        import repro.workloads.trace as trace_mod

        trace = _trace(num_requests=4_000)
        calls: list[int] = []
        orig = trace_mod.splitmix64_array

        def counting(keys, seed):
            calls.append(len(keys))
            return orig(keys, seed)

        monkeypatch.setattr(trace_mod, "splitmix64_array", counting)
        monkeypatch.setenv(KERNEL_ENV_VAR, "columnar")
        config = ClusterConfig(num_shards=4, engine="nemo")
        result = CacheCluster(config).replay(trace, jobs=1)
        assert result.num_requests == 4_000
        # One pass per shard over its own requests: every key of the
        # trace is hashed once, as a serial replay would.
        assert calls == result.shard_requests

    def test_nemo_columnar_cluster_matches_batched(self, monkeypatch):
        """Shard workers dispatching to the Nemo whole-trace kernel
        merge byte-identically with the batched shard lane."""
        trace = _trace(num_requests=6_000)
        config = ClusterConfig(num_shards=4, engine="nemo")
        results = {}
        for kernel in ("columnar", "batched"):
            monkeypatch.setenv(KERNEL_ENV_VAR, kernel)
            results[kernel] = CacheCluster(config).replay(trace, jobs=1)
        _assert_results_identical(results["columnar"], results["batched"])


class TestOneShardIsSerial:
    def test_final_matches_serial_replay(self):
        """One shard == plain serial replay of the bare engine, bit for
        bit, on every key the merge reports and for every engine.  The
        trace is big enough for FW's and KG's set regions to collect
        (``set_gc_runs`` > 0), so their relocation and erase counters
        are real numbers on both sides."""
        trace = _trace(num_requests=60_000)
        for name in ENGINE_NAMES:
            config = ClusterConfig(num_shards=1, engine=name)
            cluster = CacheCluster(config).replay(trace, jobs=1)
            serial = replay(make_engine(name, geometry(ZONES_PER_SHARD)), trace)
            if name in ("fw", "kg"):
                assert serial.final["set_gc_runs"] > 0, name
            _assert_finals_identical(
                cluster.final,
                {key: serial.final[key] for key in cluster.final},
                label=f"{name}: ",
            )

    def test_wa_convention_matches_engine(self):
        """The merged 'wa' uses each engine's own reporting convention
        (Set reports total WA, the rest ALWA)."""
        trace = _trace(num_requests=4_000)
        for engine_name in ("log", "set"):
            config = ClusterConfig(num_shards=1, engine=engine_name)
            cluster = CacheCluster(config).replay(trace, jobs=1)
            engine = make_engine(engine_name, geometry(ZONES_PER_SHARD))
            serial = replay(engine, trace)
            assert cluster.final["wa"] == serial.final["wa"]


class TestRoutingInvariants:
    def test_route_trace_partitions_requests(self):
        trace = _trace()
        cluster = CacheCluster(ClusterConfig(num_shards=4))
        shards = cluster.route_trace(trace)
        assert sum(len(idx) for idx in shards) == len(trace)
        merged = np.sort(np.concatenate(shards))
        assert np.array_equal(merged, np.arange(len(trace)))

    def test_shard_requests_match_router(self):
        trace = _trace()
        cluster = CacheCluster(ClusterConfig(num_shards=4))
        result = cluster.replay(trace, jobs=1)
        owners = cluster.router.route_array(trace.keys)
        assert result.shard_requests == [
            int(np.count_nonzero(owners == s)) for s in cluster.router.shard_ids
        ]


class TestConfigValidation:
    def test_bad_shard_count(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_shards=0)

    def test_unknown_engine(self):
        with pytest.raises(ConfigError):
            ClusterConfig(engine="bogus")
