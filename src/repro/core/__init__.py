"""Nemo: the paper's contribution (§4).

Nemo is a set-associative cache with a deliberately *small* hash space:
keys hash to an intra-Set-Group offset, and whole Set-Groups (SGs, one
device erase unit each) are the flush and eviction granularity, giving
log-structured physical writes with set-associative logical placement.
Its write amplification is ``1 / E(FR_SG)`` (Eq. 9) — the reciprocal of
the SG fill rate — driven to ≈1.56 by three fill techniques (§4.2):
buffered in-memory SGs, delayed (count-based) flushing,
and hotness-aware writeback.

Memory efficiency comes from approximate indexing (§4.3): per-set bloom
filters grouped into Parallel Bloom Filter Groups (PBFGs), page-packed
on flash and cached on demand, plus hybrid 1-bit hotness tracking
(§4.4).

Public entry point: :class:`~repro.core.nemo.NemoCache` configured by
:class:`~repro.core.config.NemoConfig`.
"""

from repro.core.bloom import bloom_bits_per_object, bloom_num_hashes
from repro.core.config import NemoConfig
from repro.core.setgroup import InMemorySet, SetGroup
from repro.core.sgqueue import SetGroupQueue
from repro.core.flusher import FlushDecision, FlushPolicy
from repro.core.hotness import HotnessTracker
from repro.core.pbfg import IndexLayout, IndexGroupBuilder
from repro.core.index_cache import IndexCache, IndexPool
from repro.core.nemo import NemoCache

__all__ = [
    "bloom_bits_per_object",
    "bloom_num_hashes",
    "NemoConfig",
    "InMemorySet",
    "SetGroup",
    "SetGroupQueue",
    "FlushPolicy",
    "FlushDecision",
    "HotnessTracker",
    "IndexLayout",
    "IndexGroupBuilder",
    "IndexCache",
    "IndexPool",
    "NemoCache",
]
