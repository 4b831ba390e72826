"""repro — a full Python reproduction of *Nemo: A Low-Write-Amplification
Cache for Tiny Objects on Log-Structured Flash Devices* (ASPLOS '26).

Layers (bottom-up):

- :mod:`repro.flash` — simulated flash devices: a ZNS SSD
  (``ZNSDevice``) and a conventional one (``PageMapFTL``: FTL + GC),
  with byte-exact WA accounting and a latency model.  Only these two
  write NAND page state, zone state and the host/flash traffic
  counters; engines go through their methods.
- :mod:`repro.workloads` — synthetic Twitter-cluster traces (Table 5)
  and the paper's §5.1 merge protocol.
- :mod:`repro.baselines` — the four comparison engines: Log, Set,
  Kangaroo, FairyWREN.
- :mod:`repro.core` — Nemo itself.
- :mod:`repro.analysis` — the paper's analytic models (Eqs. 1–11).
- :mod:`repro.harness` — trace replay, metric sampling, reporting.
- :mod:`repro.engines` — the engine registry: ``make_engine(name,
  geometry(num_zones))`` builds every engine the CLI and the
  experiments name, at its paper configuration, on 1 MiB zones.
- :mod:`repro.cluster` — sharded cache cluster: the consistent-hash
  router and concurrent per-shard replay whose final counters merge
  exactly.
- :mod:`repro.experiments` — one module per paper table/figure.

Quickstart::

    from repro import merged_twitter_trace, replay
    from repro.engines import geometry, make_engine

    cache = make_engine("nemo", geometry(64))  # 64 MiB device
    trace = merged_twitter_trace(num_requests=200_000)
    result = replay(cache, trace)
    print(result.summary())
"""

from repro.errors import (
    CacheError,
    ConfigError,
    DeviceError,
    EngineStateError,
    ObjectTooLargeError,
    ReproError,
    TraceError,
)
from repro.flash import (
    FlashGeometry,
    FlashStats,
    LatencyModel,
    NandTimings,
    PageMapFTL,
    ZNSDevice,
)
from repro.workloads import (
    TWITTER_CLUSTERS,
    Trace,
    ZipfGenerator,
    generate_cluster_trace,
    merged_twitter_trace,
)
from repro.baselines import (
    CacheEngine,
    FairyWrenCache,
    KangarooCache,
    LogStructuredCache,
    LookupResult,
    SetAssociativeCache,
)
from repro.core import NemoCache, NemoConfig
from repro.harness import ReplayResult, replay
from repro.cluster import (
    CacheCluster,
    ClusterConfig,
    ClusterReplayResult,
    ConsistentHashRouter,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigError",
    "DeviceError",
    "CacheError",
    "EngineStateError",
    "ObjectTooLargeError",
    "TraceError",
    "FlashGeometry",
    "FlashStats",
    "LatencyModel",
    "NandTimings",
    "ZNSDevice",
    "PageMapFTL",
    "Trace",
    "ZipfGenerator",
    "TWITTER_CLUSTERS",
    "generate_cluster_trace",
    "merged_twitter_trace",
    "CacheEngine",
    "LookupResult",
    "LogStructuredCache",
    "SetAssociativeCache",
    "KangarooCache",
    "FairyWrenCache",
    "NemoCache",
    "NemoConfig",
    "ReplayResult",
    "replay",
    "CacheCluster",
    "ClusterConfig",
    "ClusterReplayResult",
    "ConsistentHashRouter",
    "__version__",
]
