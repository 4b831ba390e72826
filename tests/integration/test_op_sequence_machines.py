"""Stateful op-sequence machines: one per registered engine.

One Hypothesis rule-based machine per engine (Log, Set, FW, KG, Nemo)
interleaves inserts, GETs (a lookup, then admission on a miss, as the
replay harness does), bulk GET runs (``lookup_many``) and deletes on a
tiny device that fills, evicts
and garbage-collects within a few dozen steps, checking after every
step that

- a hit implies the key was inserted and not deleted since (eviction
  may turn a live key into a miss, never the reverse);
- a lookup right after a delete misses;
- a GET run gains no more hits than it has keys that were live before
  it or appeared earlier in it, and its last key is held afterwards;
- the engine holds no more objects than the model has live keys;
- the byte counters stay non-negative and NAND never receives less
  than the host wrote;
- ``HierarchicalSet.check_invariants()`` (FW, KG) and
  ``IndexPool.check_invariants()`` (Nemo) pass.

Nemo's machine also drives a twin, the real-filter
:class:`~tests.core.reference.RealFilterNemo`, through the same ops:
every GET's hit, the hit count and ``object_count()`` must agree after
every step.

``OP_MACHINE_EXAMPLES`` scales the example count: CI sets it to 200
per engine; the local default keeps the suite fast.
"""

from __future__ import annotations

import math
import os
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.baselines.fairywren import FairyWrenCache
from repro.baselines.hierarchical import HierarchicalCacheBase
from repro.baselines.kangaroo import KangarooCache
from repro.baselines.log_structured import LogStructuredCache
from repro.baselines.set_associative import SetAssociativeCache
from repro.core.config import NemoConfig
from repro.core.nemo import NemoCache
from repro.flash.geometry import FlashGeometry
from tests.core.reference import RealFilterNemo

EXAMPLES = int(os.environ.get("OP_MACHINE_EXAMPLES", "10"))

KEYS = st.integers(0, 250)
SIZES = st.integers(40, 900)


def tiny_geometry():
    return FlashGeometry(
        page_size=4096, pages_per_block=16, num_blocks=8, blocks_per_zone=1
    )


def nemo_geometry():
    """Four 1 KiB sets per SG and eight zones: Nemo flushes within a few
    steps and wraps its SG pool within a machine run (on
    :func:`tiny_geometry` no SG ever reaches flash)."""
    return FlashGeometry(
        page_size=1024, pages_per_block=4, num_blocks=8, blocks_per_zone=1
    )


def nemo_config():
    return NemoConfig(flush_threshold=3, sgs_per_index_group=2, bf_capacity_per_set=20)


ENGINE_FACTORIES = {
    "log": lambda: LogStructuredCache(tiny_geometry()),
    "set": lambda: SetAssociativeCache(tiny_geometry(), op_ratio=0.5),
    "fw": lambda: FairyWrenCache(tiny_geometry(), log_fraction=0.15, op_ratio=0.1),
    "kg": lambda: KangarooCache(tiny_geometry(), log_fraction=0.15, op_ratio=0.1),
    "nemo": lambda: NemoCache(nemo_geometry(), nemo_config()),
}

#: Engines whose twin receives the same ops and must agree on every hit.
TWIN_FACTORIES = {
    "nemo": lambda: RealFilterNemo(nemo_geometry(), nemo_config()),
}


def make_op_machine(engine_name: str) -> type[RuleBasedStateMachine]:
    class OpSequenceMachine(RuleBasedStateMachine):
        @initialize()
        def setup(self):
            self.engine = ENGINE_FACTORIES[engine_name]()
            twin = TWIN_FACTORIES.get(engine_name)
            self.engines = (self.engine,) if twin is None else (self.engine, twin())
            # Keys inserted and not deleted since.  Eviction silently
            # drops members, which only turns a would-be hit into a
            # miss, so "hit => key in live" stays the soundness check.
            self.live: set[int] = set()

        def _lookup(self, key, size):
            """Look ``key`` up on every engine; the hits must agree."""
            hits = [engine.lookup(key, size).hit for engine in self.engines]
            assert len(set(hits)) == 1, f"{engine_name} twin disagrees on {key}"
            return hits[0]

        @rule(key=KEYS, size=SIZES)
        def insert(self, key, size):
            for engine in self.engines:
                engine.insert(key, size)
            self.live.add(key)

        @rule(key=KEYS, size=SIZES)
        def get(self, key, size):
            if self._lookup(key, size):
                assert key in self.live, (
                    f"{engine_name} served key {key}, which is not live"
                )
            else:
                for engine in self.engines:
                    engine.insert(key, size)
                self.live.add(key)

        @rule(run=st.lists(st.tuples(KEYS, SIZES), min_size=1, max_size=8))
        def get_run(self, run):
            """One bulk GET run through ``lookup_many`` (the batched lane)."""
            keys = [key for key, _ in run]
            engine = self.engine
            # A run key can hit only if it was live before the run or
            # appeared earlier in it (a miss admits it).
            may_hit = sum(
                1 for i, key in enumerate(keys) if key in self.live or key in keys[:i]
            )
            hits_before = engine.counters.hits
            for each in self.engines:
                each.lookup_many(keys, [size for _, size in run], 0.0, 1.0)
            assert engine.counters.hits - hits_before <= may_hit, (
                f"{engine_name} served more run keys than were live"
            )
            # Every run key hit or was admitted: all are live now, and
            # the last one is still held (nothing ran after it).
            self.live.update(keys)
            assert self._lookup(keys[-1], run[-1][1]), (
                f"{engine_name} lost key {keys[-1]} at the end of its GET run"
            )

        @rule(key=KEYS, size=SIZES)
        def delete(self, key, size):
            for engine in self.engines:
                engine.delete(key)
            self.live.discard(key)
            assert not self._lookup(key, size), (
                f"{engine_name} served key {key} right after deleting it"
            )

        @invariant()
        def consistent(self):
            if not hasattr(self, "engine"):
                return
            engine = self.engine
            assert engine.object_count() <= len(self.live)
            assert engine.counters.hits <= engine.counters.lookups
            for twin in self.engines[1:]:
                assert twin.object_count() == engine.object_count()
                assert twin.counters.hits == engine.counters.hits
            snap = engine.stats.snapshot()
            for key, value in snap.items():
                assert isinstance(value, (int, float)), key
                assert math.isnan(value) or value >= 0, (key, value)
            assert snap["flash_write_bytes"] >= snap["host_write_bytes"]
            if isinstance(engine, NemoCache):
                engine.index_pool.check_invariants()
            if isinstance(engine, HierarchicalCacheBase):
                engine.hset.check_invariants()

    OpSequenceMachine.__name__ = f"OpSequenceMachine_{engine_name}"
    return OpSequenceMachine


_SETTINGS = settings(max_examples=EXAMPLES, stateful_step_count=50, deadline=None)

for _name in sorted(ENGINE_FACTORIES):
    _case = make_op_machine(_name).TestCase
    _case.settings = _SETTINGS
    globals()[f"TestOpSequence_{_name}"] = _case
del _name, _case


def _resident(engine, keys):
    """How many of ``keys`` a lookup still finds (lookups never admit)."""
    return sum(engine.lookup(key, 100).hit for key in sorted(keys))


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
def test_object_count_counts_each_resident_key_once(engine_name):
    """After a run heavy in re-inserts, ``object_count()`` is the number
    of live keys a lookup finds.  A re-inserted key leaves a stale copy
    behind (in Nemo's SG pool, FW/KG's set tier, FW's hot set or
    promotion buffer), and that copy must not count a second time."""
    rng = random.Random(0)
    engine = ENGINE_FACTORIES[engine_name]()
    live = set()
    for _ in range(300):
        key = rng.randrange(60)
        engine.insert(key, rng.randrange(40, 900))
        live.add(key)
    count = engine.object_count()
    assert count == _resident(engine, live)


def test_nemo_reinserts_over_stale_pool_copies_count_once():
    """Keys 0, 1 and 2 are re-inserted after their first copies reached
    the SG pool: 9 live keys, 7 of them resident, and each of those
    counted once (copies counted 10)."""
    engine = ENGINE_FACTORIES["nemo"]()
    inserts = [
        (84, 280), (1, 40), (36, 481), (45, 572), (0, 40), (82, 229),
        (2, 224), (10, 423), (61, 338), (0, 40), (1, 40), (2, 40),
    ]
    for key, size in inserts:
        engine.insert(key, size)
    count = engine.object_count()
    assert count == _resident(engine, {key for key, _ in inserts}) == 7


@pytest.mark.parametrize("engine_name", sorted(ENGINE_FACTORIES))
def test_snapshot_gc_runs_is_the_device_counter(engine_name):
    """``gc_runs`` means the device's ``FlashStats.gc_runs`` on every
    engine; FW/KG report their set-region GC as ``set_gc_runs``."""
    rng = random.Random(0)
    engine = ENGINE_FACTORIES[engine_name]()
    for _ in range(1000):
        engine.insert(rng.randrange(250), rng.randrange(40, 900))
    snap = engine.metrics_snapshot()
    assert snap["gc_runs"] == engine.stats.gc_runs
    if isinstance(engine, HierarchicalCacheBase):
        assert snap["set_gc_runs"] == engine.hset.gc_runs > 0
