"""The package root exports a stable, importable public API."""

import importlib
import inspect
from dataclasses import fields

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_subpackages_import(self):
        for module in (
            "repro.flash",
            "repro.workloads",
            "repro.baselines",
            "repro.core",
            "repro.analysis",
            "repro.harness",
            "repro.engines",
            "repro.cluster",
            "repro.experiments",
        ):
            importlib.import_module(module)

    def test_engines_share_interface(self):
        from repro import (
            CacheEngine,
            FairyWrenCache,
            KangarooCache,
            LogStructuredCache,
            NemoCache,
            SetAssociativeCache,
        )

        for engine_cls in (
            LogStructuredCache,
            SetAssociativeCache,
            FairyWrenCache,
            KangarooCache,
            NemoCache,
        ):
            assert issubclass(engine_cls, CacheEngine)

    def test_quickstart_snippet_runs(self, tiny_geometry):
        """The README quickstart pattern works end to end."""
        from repro import NemoCache, NemoConfig, merged_twitter_trace, replay

        cache = NemoCache(
            tiny_geometry,
            NemoConfig(flush_threshold=4, sgs_per_index_group=2, bf_capacity_per_set=20),
        )
        trace = merged_twitter_trace(num_requests=5_000, wss_scale=1 / 8192)
        result = replay(cache, trace)
        assert result.num_requests == 5_000
        assert "Nemo" in result.summary()


#: Every settable value of the engines and the layers they build, by
#: constructor.  Adding or removing one changes this table on purpose.
CONSTRUCTOR_PARAMETERS = {
    "repro.core.nemo.NemoCache": ["geometry", "config", "latency"],
    "repro.baselines.log_structured.LogStructuredCache": ["geometry", "latency"],
    "repro.baselines.set_associative.SetAssociativeCache": [
        "geometry", "op_ratio", "latency",
    ],
    "repro.baselines.fairywren.FairyWrenCache": [
        "geometry", "log_fraction", "op_ratio", "latency",
    ],
    "repro.baselines.kangaroo.KangarooCache": [
        "geometry", "log_fraction", "op_ratio", "latency",
    ],
    "repro.baselines.hierarchical.HierarchicalCacheBase": [
        "geometry", "log_fraction", "op_ratio", "fairywren", "latency",
    ],
    "repro.baselines.hset.HierarchicalSet": [
        "device", "zone_ids", "num_buckets", "fairywren",
        "bucket_drainer", "is_hot", "on_evict",
    ],
    "repro.baselines.hlog.HierarchicalLog": ["device", "zone_ids", "num_buckets"],
    "repro.flash.ftl.PageMapFTL": ["geometry", "op_ratio", "stats", "latency"],
}

NEMO_CONFIG_FIELDS = [
    "enable_buffered_sgs",
    "enable_delayed_flush",
    "enable_writeback",
    "flush_threshold",
    "bf_false_positive_rate",
    "bf_capacity_per_set",
    "sgs_per_index_group",
    "cached_index_ratio",
    "hotness_window_fraction",
    "cooling_interval_fraction",
    "rng_seed",
]


class TestSettableValues:
    @pytest.mark.parametrize("path", sorted(CONSTRUCTOR_PARAMETERS))
    def test_constructor_keywords_pinned(self, path):
        module, name = path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module), name)
        params = list(inspect.signature(cls).parameters)
        assert params == CONSTRUCTOR_PARAMETERS[path]

    def test_nemo_config_fields_pinned(self):
        from repro.core.config import NemoConfig

        assert [f.name for f in fields(NemoConfig)] == NEMO_CONFIG_FIELDS

    @pytest.mark.parametrize(
        "engine,param",
        [
            ("nemo", "bogus"),
            ("nemo", "hash_seed"),
            ("nemo", "flush_policy"),
            ("nemo", "flush_probability"),
            ("nemo", "zones_per_sg"),
            ("nemo", "num_inmem_sgs"),
            ("log", "object_header_bytes"),
            ("set", "hash_seed"),
            ("fw", "hash_seed"),
            ("fw", "promote_batch_bytes"),
            ("fw", "victim_policy"),
            ("kg", "hash_seed"),
            ("kg", "victim_policy"),
        ],
    )
    def test_make_engine_rejects_unknown_parameters(self, tiny_geometry, engine, param):
        from repro.engines import make_engine
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match=param):
            make_engine(engine, tiny_geometry, **{param: 1})
