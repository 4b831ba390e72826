"""Sharded cache cluster (DESIGN.md §8).

Public surface:

- :class:`ConsistentHashRouter` — seeded splitmix consistent-hash ring.
- :class:`ClusterConfig` / :class:`CacheCluster` — N registered engines
  behind the router, replayed concurrently; the shards' final counters
  merge exactly.
"""

from repro.cluster.cluster import (
    CacheCluster,
    ClusterConfig,
    ClusterReplayResult,
)
from repro.cluster.router import ConsistentHashRouter

__all__ = [
    "CacheCluster",
    "ClusterConfig",
    "ClusterReplayResult",
    "ConsistentHashRouter",
]
