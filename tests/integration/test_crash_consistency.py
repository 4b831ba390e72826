"""Stateful crash-consistency machines: the headline fault-injection net.

One Hypothesis rule-based machine per registered engine interleaves
requests, device faults (from a seeded :class:`FaultPlan`), and
power-loss/recovery cycles, checking after every step that

- the cache never serves a value it did not durably hold: a hit implies
  the key was inserted and not since deleted (crashes may *lose* live
  keys — that only turns hits into misses, never the reverse), and
- the device's fault accounting stays internally consistent (every
  program/erase failure retired exactly one block into the spare pool,
  ECC rescues imply their full retry budgets, counters never go
  negative).

``CRASH_MACHINE_EXAMPLES`` scales the example count: CI sets it to 200+
per engine; the local default keeps the suite fast.
"""

from __future__ import annotations

import math
import os

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.baselines.fairywren import FairyWrenCache
from repro.baselines.hierarchical import HierarchicalCacheBase
from repro.baselines.kangaroo import KangarooCache
from repro.baselines.log_structured import LogStructuredCache
from repro.baselines.set_associative import SetAssociativeCache
from repro.core.config import NemoConfig
from repro.core.nemo import NemoCache
from repro.faults.plan import FaultConfig, FaultPlan
from repro.flash.geometry import FlashGeometry

EXAMPLES = int(os.environ.get("CRASH_MACHINE_EXAMPLES", "10"))

#: Effectively-infinite spare pool: the machine explores fault *paths*,
#: not end-of-life, so retirement must never abort an example.
SPARES = 10_000


def tiny_geometry():
    return FlashGeometry(
        page_size=4096, pages_per_block=16, num_blocks=8, blocks_per_zone=1
    )


ENGINE_FACTORIES = {
    "log": lambda: LogStructuredCache(tiny_geometry()),
    "set": lambda: SetAssociativeCache(tiny_geometry(), op_ratio=0.5),
    "fw": lambda: FairyWrenCache(tiny_geometry(), log_fraction=0.15, op_ratio=0.1),
    "kg": lambda: KangarooCache(tiny_geometry(), log_fraction=0.15, op_ratio=0.1),
    "nemo": lambda: NemoCache(
        tiny_geometry(),
        NemoConfig(flush_threshold=3, sgs_per_index_group=2, bf_capacity_per_set=20),
    ),
}


def make_crash_machine(engine_name: str) -> type[RuleBasedStateMachine]:
    class CrashConsistencyMachine(RuleBasedStateMachine):
        @initialize(
            seed=st.integers(0, 2**32 - 1),
            read_rate=st.sampled_from([0.0, 0.02, 0.1]),
            program_rate=st.sampled_from([0.0, 0.01]),
            erase_rate=st.sampled_from([0.0, 0.02]),
        )
        def setup(self, seed, read_rate, program_rate, erase_rate):
            self.engine = ENGINE_FACTORIES[engine_name]()
            self.plan = FaultPlan(
                FaultConfig(
                    seed=seed,
                    read_error_rate=read_rate,
                    program_error_rate=program_rate,
                    erase_error_rate=erase_rate,
                    spare_blocks=SPARES,
                )
            )
            self.engine.install_fault_plan(self.plan)
            # Keys inserted and not since deleted.  A crash may silently
            # drop members (lost DRAM state), which only ever turns a
            # would-be hit into a miss — so `live` stays a sound upper
            # bound and "hit => key in live" stays the durability check.
            self.live: set[int] = set()

        @rule(key=st.integers(0, 250), size=st.integers(40, 900))
        def insert(self, key, size):
            self.engine.insert(key, size)
            self.live.add(key)

        @rule(key=st.integers(0, 250))
        def delete(self, key):
            self.engine.delete(key)
            self.live.discard(key)

        @rule(key=st.integers(0, 250), size=st.integers(40, 900))
        def lookup(self, key, size):
            result = self.engine.lookup(key, size)
            if result.hit:
                assert key in self.live, (
                    f"{engine_name} served key {key} it never durably held"
                )

        @rule()
        def crash_and_recover(self):
            self.engine.crash()
            self.engine.recover()
            # Deletes are synchronously durable (the flash image is
            # pruned in place), so nothing deleted may come back; keys
            # that only lived in DRAM are simply gone.  Both outcomes
            # keep `live` a superset of the cache's contents.

        @invariant()
        def accounting_consistent(self):
            if not hasattr(self, "engine"):
                return
            engine = self.engine
            fc = engine.stats.fault_snapshot()
            assert all(v >= 0 for v in fc.values()), fc
            # Every program/erase failure retired exactly one block
            # (the spare pool is sized so EOL never fires here).
            assert (
                fc["blocks_retired"]
                == fc["program_failures"] + fc["erase_failures"]
            )
            assert fc["blocks_retired"] <= SPARES
            # An ECC rescue only happens after a full retry budget.
            assert (
                fc["read_retries"]
                >= fc["ecc_rescued_reads"] * self.plan.config.max_read_retries
            )
            assert engine.counters.hits <= engine.counters.lookups
            assert engine.object_count() >= 0
            # WA accounting: byte counters are non-negative integers and
            # the device never wrote less to NAND than the host issued
            # (GC relocation and failed-program attempts only add).
            snap = engine.stats.snapshot()
            for key, value in snap.items():
                assert isinstance(value, (int, float)), key
                assert math.isnan(value) or value >= 0, (key, value)
            assert snap["flash_write_bytes"] >= snap["host_write_bytes"]
            if isinstance(engine, NemoCache):
                # The incremental live-group count survives group
                # writes, SG evictions, zone reclaims and recovery.
                engine.index_pool.check_invariants()
            if isinstance(engine, HierarchicalCacheBase):
                # The HSet's placement maps, per-zone valid counts,
                # object count and zone lists agree after every rule —
                # set writes, GC rounds, deletes and recovery alike.
                engine.hset.check_invariants()

    CrashConsistencyMachine.__name__ = f"CrashMachine_{engine_name}"
    return CrashConsistencyMachine


_SETTINGS = settings(max_examples=EXAMPLES, stateful_step_count=50, deadline=None)

for _name in sorted(ENGINE_FACTORIES):
    _machine = make_crash_machine(_name)
    _case = _machine.TestCase
    _case.settings = _SETTINGS
    globals()[f"TestCrashConsistency_{_name}"] = _case
del _name, _machine, _case
