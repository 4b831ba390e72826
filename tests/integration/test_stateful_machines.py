"""Hypothesis stateful machines: long random op interleavings.

Two rule-based machines drive the FTL and the Nemo engine through
arbitrary operation sequences while checking them against plain-dict
models after every step — the strongest correctness net in the suite,
catching ordering bugs that fixed scenarios miss.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.config import NemoConfig
from repro.core.nemo import NemoCache
from repro.flash.ftl import PageMapFTL
from repro.flash.geometry import FlashGeometry


class FTLMachine(RuleBasedStateMachine):
    """The FTL must behave as a dict under write/trim at any GC load."""

    @initialize()
    def setup(self):
        geo = FlashGeometry(
            page_size=4096, pages_per_block=4, num_blocks=8, blocks_per_zone=1
        )
        self.ftl = PageMapFTL(geo, op_ratio=0.3)
        self.model: dict[int, int] = {}
        self.seq = 0

    @rule(lba=st.integers(0, 50))
    def write(self, lba):
        lba %= self.ftl.num_lbas
        self.seq += 1
        self.ftl.write(lba, self.seq)
        self.model[lba] = self.seq

    @rule(lba=st.integers(0, 50))
    def trim(self, lba):
        lba %= self.ftl.num_lbas
        self.ftl.trim(lba)
        self.model.pop(lba, None)

    @rule(lba=st.integers(0, 50))
    def read(self, lba):
        lba %= self.ftl.num_lbas
        if lba in self.model:
            assert self.ftl.read(lba)[0] == self.model[lba]
        else:
            assert not self.ftl.is_mapped(lba)

    @invariant()
    def mapping_consistent(self):
        if hasattr(self, "ftl"):
            self.ftl.check_invariants()
            assert self.ftl.mapped_lba_count() == len(self.model)


class NemoMachine(RuleBasedStateMachine):
    """Nemo must never resurrect deleted keys, lie about sizes, or
    corrupt its pool/index bookkeeping, under any op interleaving."""

    @initialize()
    def setup(self):
        geo = FlashGeometry(
            page_size=4096, pages_per_block=16, num_blocks=8, blocks_per_zone=1
        )
        self.cache = NemoCache(
            geo,
            NemoConfig(
                flush_threshold=3,
                sgs_per_index_group=2,
                bf_capacity_per_set=20,
                cooling_interval_fraction=0.3,
            ),
        )
        self.live: dict[int, int] = {}

    @rule(key=st.integers(0, 300), size=st.integers(40, 900))
    def insert(self, key, size):
        self.cache.insert(key, size)
        self.live[key] = size

    @rule(key=st.integers(0, 300))
    def delete(self, key):
        self.cache.delete(key)
        self.live.pop(key, None)

    @rule(key=st.integers(0, 300))
    def lookup(self, key):
        result = self.cache.lookup(key, self.live.get(key, 100))
        if result.hit:
            # Hits only for live keys (eviction may turn live into miss,
            # but never the reverse).
            assert key in self.live

    @invariant()
    def structures_consistent(self):
        if not hasattr(self, "cache"):
            return
        cache = self.cache
        # Pool bounded; FIFO ids ordered.
        assert len(cache.pool) <= cache.pool_capacity_sgs
        ids = [f.sg_id for f in cache.pool]
        assert ids == sorted(ids)
        # Copy counts match pool membership exactly.
        counted: dict[int, int] = {}
        for fsg in cache.pool:
            for s in fsg.sets:
                for key in s:
                    counted[key] = counted.get(key, 0) + 1
        assert counted == cache._flash_copies
        # The newest-holder index points into the live pool.
        live_ids = set(ids)
        assert set(cache._flash_index.values()) <= live_ids
        # Byte accounting is non-negative and consistent per set.
        for sg in cache.queue:
            for s in sg.sets:
                assert s.used_bytes == sum(s.objects.values())


TestFTLMachine = FTLMachine.TestCase
TestFTLMachine.settings = settings(
    max_examples=25, stateful_step_count=60, deadline=None
)

TestNemoMachine = NemoMachine.TestCase
TestNemoMachine.settings = settings(
    max_examples=15, stateful_step_count=80, deadline=None
)
