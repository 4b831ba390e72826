"""Unit tests for the shared engine interface pieces."""

import inspect
import json
import math

import pytest

from repro.baselines.base import CacheEngine, EngineCounters, LookupResult
from repro.baselines.log_structured import LogStructuredCache
from repro.engines import ENGINE_NAMES, geometry, make_engine
from repro.flash.geometry import FlashGeometry

#: The request methods the replay runner and the closed-loop closure
#: call through the base signature.
REQUEST_METHODS = (
    "lookup",
    "insert",
    "delete",
    "lookup_many",
    "insert_many",
    "delete_many",
    "_lookup_at",
    "_insert_at",
)

#: Derived once in :class:`CacheEngine` from ``_lookup_at`` /
#: ``_insert_at``; no engine writes its own.
DERIVED_METHODS = ("lookup", "insert", "insert_many", "_get")


class TestLookupResult:
    def test_defaults(self):
        r = LookupResult(hit=False)
        assert r.latency_us == 0.0
        assert r == (False, 0.0)
        assert LookupResult._fields == ("hit", "latency_us")

    def test_frozen(self):
        r = LookupResult(hit=True)
        try:
            r.hit = False
            raised = False
        except AttributeError:
            raised = True
        assert raised


class TestEngineCounters:
    def test_ratios_empty(self):
        c = EngineCounters()
        assert math.isnan(c.miss_ratio)
        assert math.isnan(c.hit_ratio)

    def test_ratios(self):
        import pytest

        c = EngineCounters(lookups=10, hits=7)
        assert c.hit_ratio == pytest.approx(0.7)
        assert c.miss_ratio == pytest.approx(0.3)


class TestEngineHelpers:
    def make(self):
        geo = FlashGeometry(
            page_size=4096, pages_per_block=16, num_blocks=4, blocks_per_zone=1
        )
        return LogStructuredCache(geo)

    def test_record_admission(self):
        engine = self.make()
        engine.record_admission(123)
        assert engine.counters.inserts == 1
        assert engine.counters.insert_bytes == 123
        assert engine.stats.logical_write_bytes == 123

    def test_metrics_snapshot_keys(self):
        engine = self.make()
        engine.insert(1, 100)
        engine.lookup(1, 100)
        snap = engine.metrics_snapshot()
        for key in ("wa", "miss_ratio", "object_count", "host_write_bytes"):
            assert key in snap

    def test_default_delete_reports_absence(self):
        from repro.baselines.base import CacheEngine

        class Minimal(CacheEngine):
            name = "min"

            def _lookup_at(self, key, size, placement, now_us):
                return False, 0.0

            def _insert_at(self, key, size, placement, now_us):
                self.record_admission(size)

            def object_count(self):
                return 0

            def memory_overhead_bits_per_object(self):
                return 0.0

        assert Minimal().delete(5) is False

    def test_repr_contains_metrics(self):
        engine = self.make()
        engine.insert(1, 100)
        engine.lookup(1, 100)
        text = repr(engine)
        assert "objects=" in text


@pytest.mark.parametrize("name", ENGINE_NAMES)
class TestRegisteredEngineProtocol:
    """Every engine the factory builds accepts every call the base
    signature allows on each request method."""

    def test_snapshot_keys_leave_out_only_an_unnamed_object_count(self, name):
        engine = make_engine(name, geometry(8))
        for key in range(200):
            engine.insert(key, 100)
            engine.lookup(key // 2, 100)
        full = engine.metrics_snapshot()
        lean = engine.metrics_snapshot(("wa", "hits"))
        # JSON: NaN ratios compare equal to themselves.
        assert json.dumps(lean) == json.dumps(
            {k: v for k, v in full.items() if k != "object_count"}
        )
        assert json.dumps(engine.metrics_snapshot(("object_count",))) == json.dumps(full)

    def test_only_the_probe_and_the_admission_are_engine_written(self, name):
        engine_type = type(make_engine(name, geometry(8)))
        own = engine_type.__mro__[: engine_type.__mro__.index(CacheEngine)]
        for cls in own:
            written = set(DERIVED_METHODS) & set(vars(cls))
            assert not written, f"{cls.__name__} defines {sorted(written)}"
        for method in ("_lookup_at", "_insert_at"):
            assert any(method in vars(cls) for cls in own), method

    @pytest.mark.parametrize("method", REQUEST_METHODS)
    def test_request_signature_extends_the_base(self, name, method):
        engine_type = type(make_engine(name, geometry(8)))
        base = list(inspect.signature(getattr(CacheEngine, method)).parameters.values())
        own = list(inspect.signature(getattr(engine_type, method)).parameters.values())

        def shape(params):
            return [(p.name, p.kind, p.default) for p in params]

        assert shape(own[: len(base)]) == shape(base)
        variadic = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        for extra in own[len(base) :]:
            assert extra.default is not extra.empty or extra.kind in variadic, extra.name
