"""The package root exports a stable, importable public API."""

import importlib

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
