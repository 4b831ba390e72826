"""Baseline flash-cache engines from the paper's Table 4.

Four baselines, each a full engine over the simulated devices:

- :class:`~repro.baselines.log_structured.LogStructuredCache` ("Log"):
  append-only segments on ZNS, exact in-memory index — the low-WA /
  high-memory extreme.
- :class:`~repro.baselines.set_associative.SetAssociativeCache` ("Set"):
  CacheLib-style hashed sets on a conventional SSD with 50 % OP — the
  low-memory / high-WA extreme.
- :class:`~repro.baselines.kangaroo.KangarooCache` ("KG"): hierarchical
  HLog→HSet with device GC *independent* of migration (Case 3.1), so WA
  compounds multiplicatively.
- :class:`~repro.baselines.fairywren.FairyWrenCache` ("FW"): hierarchical
  with host FTL merging GC into log-to-set migration (Case 3.2) and a
  hot/cold set split, the paper's SOTA comparison point.
"""

from repro.baselines.base import CacheEngine, LookupResult
from repro.baselines.log_structured import LogStructuredCache
from repro.baselines.set_associative import SetAssociativeCache
from repro.baselines.hlog import HierarchicalLog
from repro.baselines.hset import HierarchicalSet
from repro.baselines.kangaroo import KangarooCache
from repro.baselines.fairywren import FairyWrenCache

__all__ = [
    "CacheEngine",
    "LookupResult",
    "LogStructuredCache",
    "SetAssociativeCache",
    "HierarchicalLog",
    "HierarchicalSet",
    "KangarooCache",
    "FairyWrenCache",
]
