"""A sharded cache cluster over the engine registry.

:class:`CacheCluster` fronts N shards — each a registered engine on its
own flash device — behind the seeded consistent-hash router.  One
replay proceeds in three deterministic steps:

1. **Route once** — the router maps the whole key column to shard
   owners in one vectorised pass, and the trace is split into per-shard
   sub-traces that preserve the global request order within each shard.
2. **Replay shards concurrently** — each shard is one
   :class:`~repro.harness.parallel.Cell` shipped to a worker process
   (``run_cells`` fan-out, spawn-safe): the worker rebuilds its engine
   from a descriptor and runs the ordinary serial
   :func:`~repro.harness.runner.replay` over its sub-trace, sampling
   nothing — the lane is the runner's default (``REPRO_REPLAY_KERNEL``
   or batched).  Each shard hashes its own keys; the shards' sub-traces
   are disjoint, so the placement hash runs once per request.
3. **Merge exactly** — the parent sums each shard's final *raw integer
   counters* in shard order (independent of ``jobs``) and rebuilds
   every derived ratio through the real ``FlashStats`` /
   ``EngineCounters`` arithmetic (``_merged_snapshot``).  Ratios are
   *never* summed across shards — only the integer components are.

Shards share no state, so the merged metrics are a pure function of
``(config, trace)``: byte-identical for any ``jobs``, and the replay's
critical path (slowest shard's in-replay wall) shrinks near-linearly
with the shard count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.baselines.base import CacheEngine, EngineCounters
from repro.cluster.router import ConsistentHashRouter
from repro.engines import ENGINE_NAMES, geometry, make_engine
from repro.errors import ConfigError
from repro.flash.stats import FlashStats
from repro.harness.parallel import Cell, run_cells
from repro.harness.runner import replay
from repro.workloads.trace import Trace

#: Raw integer metrics summed across shards; every derived ratio the
#: merged snapshot reports is rebuilt from these (never averaged).
_RAW_METRICS = (
    "lookups",
    "hits",
    "inserts",
    "evicted_objects",
    "object_count",
    "logical_write_bytes",
    "logical_read_bytes",
    "host_write_bytes",
    "host_read_bytes",
    "flash_write_bytes",
    "flash_read_bytes",
    "host_write_ops",
    "host_read_ops",
    "erase_ops",
    "gc_runs",
    "gc_relocated_pages",
)


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to (re)build one cluster deterministically."""

    num_shards: int = 4
    engine: str = "log"
    zones_per_shard: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigError("num_shards must be >= 1")
        if self.zones_per_shard < 1:
            raise ConfigError("zones_per_shard must be >= 1")
        if self.engine not in ENGINE_NAMES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{ENGINE_NAMES}"
            )


@dataclass
class ClusterReplayResult:
    """Merged outcome of one cluster replay."""

    engine_name: str
    trace_name: str
    num_requests: int
    num_shards: int
    final: dict[str, float]
    shard_requests: list[int] = field(default_factory=list)
    shard_wall_seconds: list[float] = field(default_factory=list)

    @property
    def wa(self) -> float:
        return self.final.get("wa", float("nan"))

    @property
    def miss_ratio(self) -> float:
        return self.final.get("miss_ratio", float("nan"))

    @property
    def critical_path_seconds(self) -> float:
        """In-replay wall seconds of the slowest shard."""
        return max(self.shard_wall_seconds, default=0.0)

    @property
    def capacity_requests_per_sec(self) -> float:
        """Throughput along the critical path: total requests over the
        slowest shard's in-replay wall.  This is the cluster's capacity
        with one core per shard — independent of how many cores the
        *measuring* box has."""
        cp = self.critical_path_seconds
        if cp <= 0.0:
            return float("nan")
        return self.num_requests / cp


def _replay_shard(
    engine_name: str,
    zones_per_shard: int,
    ops: np.ndarray,
    keys: np.ndarray,
    sizes: np.ndarray,
    trace_name: str,
) -> tuple[dict[str, float], float]:
    """Shard worker: rebuild the engine, replay the sub-trace serially,
    return ``(final snapshot, in-replay wall seconds)``.

    Module-level and argument-picklable, so ``run_cells`` can ship it
    to spawn workers; a pure function of its arguments, so results are
    independent of job count and execution order.
    """
    engine = make_engine(engine_name, geometry(zones_per_shard))
    trace = Trace(ops=ops, keys=keys, sizes=sizes, name=trace_name)
    result = replay(engine, trace, sample_at=())
    return result.final, result.wall_seconds


class CacheCluster:
    """N registered engines behind a consistent-hash router."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.router = ConsistentHashRouter(range(config.num_shards), seed=config.seed)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route_trace(self, trace: Trace) -> list[np.ndarray]:
        """Global request indices per shard (one columnar router pass).

        Entry ``k`` holds the ascending global positions of the
        requests shard ``k`` serves; indexing the trace columns with it
        yields the shard's sub-trace in global order.
        """
        owners = self.router.route_array(trace.keys)
        return [
            np.flatnonzero(owners == sid) for sid in self.router.shard_ids
        ]

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, trace: Trace, *, jobs: int | None = None) -> ClusterReplayResult:
        """Replay ``trace`` across the cluster's shards concurrently.

        Metrics are byte-identical for any ``jobs``: workers are pure
        and the merge folds shards in shard order.
        """
        shard_indices = self.route_trace(trace)
        cells = [
            Cell(
                cell_id=f"{trace.name}:cluster-shard{sid}",
                fn=_replay_shard,
                args=(
                    self.config.engine,
                    self.config.zones_per_shard,
                    trace.ops[idx],
                    trace.keys[idx],
                    trace.sizes[idx],
                    f"{trace.name}/shard{sid}",
                ),
            )
            for sid, idx in zip(self.router.shard_ids, shard_indices)
        ]
        outcomes: list[tuple[dict[str, float], float]] = run_cells(cells, jobs=jobs)

        # Exact merge: integer components summed in shard order.
        comps = {
            m: sum(int(final[m]) for final, _ in outcomes) for m in _RAW_METRICS
        }
        probe = make_engine(
            self.config.engine, geometry(self.config.zones_per_shard)
        )
        return ClusterReplayResult(
            engine_name=probe.name,
            trace_name=trace.name,
            num_requests=len(trace),
            num_shards=self.config.num_shards,
            final=_merged_snapshot(comps, probe),
            shard_requests=[len(idx) for idx in shard_indices],
            shard_wall_seconds=[wall for _, wall in outcomes],
        )


def _merged_snapshot(
    comps: Mapping[str, int], probe: CacheEngine
) -> dict[str, float]:
    """Rebuild a full ``metrics_snapshot()`` dict from summed counters.

    The integers route through a real :class:`FlashStats` /
    :class:`EngineCounters` pair so every derived ratio (alwa, dlwa,
    total_wa, miss_ratio, nan-on-zero) uses the exact arithmetic a
    live engine uses; the headline ``wa`` is read through ``probe``'s
    own ``write_amplification`` property so each engine's reporting
    convention (ALWA on ZNS, total WA on conventional devices) is
    preserved at cluster level.
    """
    stats = FlashStats(
        logical_write_bytes=comps["logical_write_bytes"],
        logical_read_bytes=comps["logical_read_bytes"],
        host_write_bytes=comps["host_write_bytes"],
        host_read_bytes=comps["host_read_bytes"],
        flash_write_bytes=comps["flash_write_bytes"],
        flash_read_bytes=comps["flash_read_bytes"],
        host_write_ops=comps["host_write_ops"],
        host_read_ops=comps["host_read_ops"],
        erase_ops=comps["erase_ops"],
        gc_runs=comps["gc_runs"],
        gc_relocated_pages=comps["gc_relocated_pages"],
    )
    counters = EngineCounters(
        lookups=comps["lookups"],
        hits=comps["hits"],
        inserts=comps["inserts"],
        evicted_objects=comps["evicted_objects"],
    )
    probe.stats = stats
    snap = stats.snapshot()
    snap.update(
        {
            "lookups": counters.lookups,
            "hits": counters.hits,
            "miss_ratio": counters.miss_ratio,
            "inserts": counters.inserts,
            "evicted_objects": counters.evicted_objects,
            "wa": probe.write_amplification,
            "object_count": comps["object_count"],
        }
    )
    return snap
