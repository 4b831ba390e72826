"""System runs: the unit of experiment work (DESIGN.md §5).

The paper measures the same Table 4 configurations figure after figure,
and so do the experiments here: default Nemo feeds eight of them, FW
Log5-OP5 seven.  A :class:`SystemSpec` names one such run — engine kind,
constructor parameters, scale and trace length — and
:func:`run_system` replays it once and returns a compact
:class:`SystemRecord` holding everything any experiment reads from it.
Experiments emit :func:`system_cell` cells and derive their rows from
the records in ``assemble``; ``registry.run_experiments`` runs each
distinct cell once and hands its record to every consumer.

The record is the same whoever consumes it, so it samples the union of
every consumer's layout: a replay with ``sample_every = n // d`` for
each ``d`` in :data:`SAMPLE_DIVISORS` (plus the end of the trace, which
every layout includes).  :meth:`SystemRecord.series` cuts one layout
back out; chunking never changes engine state, so those rows are
bit-identical to what a replay on that layout alone records.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, fields
from typing import Any

from repro.baselines.base import CacheEngine
from repro.baselines.hierarchical import HierarchicalCacheBase
from repro.core.config import NemoConfig
from repro.core.nemo import NemoCache
from repro.engines import ENGINE_NAMES, make_engine
from repro.errors import ConfigError
from repro.experiments.common import nemo_config, scale_params, twitter_trace
from repro.flash.geometry import FlashGeometry
from repro.harness.parallel import Cell
from repro.harness.runner import replay, replay_plan

#: Sample strides experiments read, as ``n // d``: 64 is the replay
#: default (fig06's p series), 128 fig16, 256 fig14, 512 fig13.
SAMPLE_DIVISORS = (64, 128, 256, 512)

#: Metrics sampled at every union position (those a snapshot carries).
SAMPLED_METRICS = ("wa", "miss_ratio", "host_write_bytes", "hits", "lookups", "p_fraction")

#: The Nemo ``make_engine("nemo")`` builds when given no parameters.
_NEMO_BASE = nemo_config()


@dataclass(frozen=True)
class SystemSpec:
    """One system run: ``make_engine(kind, **params)`` on the ``scale``
    geometry, replaying ``twitter_trace(num_requests)``.

    Frozen and hashable, so equal runs are equal cells.  ``params`` is
    a sorted tuple of ``make_engine`` keywords; for Nemo it holds only
    the :class:`NemoConfig` fields that differ from :func:`nemo_config`,
    so configurations built different ways (``nemo_config()``, Fig. 17's
    B+P+W ablation, Fig. 18's p_th = 8) name the same run.
    """

    kind: str
    params: tuple[tuple[str, Any], ...]
    scale: str
    num_requests: int

    @property
    def cell_id(self) -> str:
        params = ",".join(f"{k}={v!r}" for k, v in self.params)
        return f"system/{self.kind}({params})/{self.scale}/{self.num_requests}"

    def build(self, geometry: FlashGeometry) -> CacheEngine:
        return make_engine(self.kind, geometry, **dict(self.params))


def system(
    kind: str, scale: str, *, num_requests: int | None = None, **params: Any
) -> SystemSpec:
    """Spec of a ``kind`` run at ``scale`` (trace length defaults to
    the scale's).  Pass Nemo configurations through :func:`nemo_system`."""
    if kind not in ENGINE_NAMES:
        raise ConfigError(f"unknown engine {kind!r}; expected one of {ENGINE_NAMES}")
    if num_requests is None:
        num_requests = scale_params(scale)[1]
    return SystemSpec(kind, tuple(sorted(params.items())), scale, num_requests)


def nemo_system(
    scale: str, config: NemoConfig | None = None, *, num_requests: int | None = None
) -> SystemSpec:
    """Spec of a Nemo run (``config`` defaults to :func:`nemo_config`)."""
    config = nemo_config() if config is None else config
    changed = {
        f.name: getattr(config, f.name)
        for f in fields(NemoConfig)
        if getattr(config, f.name) != getattr(_NEMO_BASE, f.name)
    }
    return system("nemo", scale, num_requests=num_requests, **changed)


def sample_layout(n: int, divisor: int) -> list[int]:
    """Positions a replay with ``sample_every = n // divisor`` samples."""
    return sorted(replay_plan(n, max(1, n // divisor))[1])


@dataclass(frozen=True, eq=False)
class SystemRecord:
    """What one system run leaves behind — no engine, no trace.

    ``final`` is the end-of-trace ``metrics_snapshot()``; ``xs`` the
    union sample positions and ``samples`` each sampled metric's values
    there.  ``extras`` carries engine-specific results: for Nemo
    ``mem_breakdown``, ``flushes`` and ``pbfg_pool_ratio``; for FW/KG
    ``passive_hist``, ``early_passive_hist`` (``passive_hist`` after
    the first request that ran set-region GC; the steady one if none
    did), ``active_hist``, ``l2swa_p``, ``l2swa_a``, ``model_p_mean``,
    ``model_a_mean`` and ``model_l2swa_p``.
    """

    spec: SystemSpec
    engine: str
    final: dict[str, float]
    xs: tuple[int, ...]
    samples: dict[str, tuple[float, ...]]
    read_amp: float
    mem_bits: float
    extras: dict[str, Any]

    def series(self, metric: str, divisor: int) -> list[tuple[int, float]]:
        """``metric`` rows of a replay sampling every ``n // divisor``."""
        if divisor not in SAMPLE_DIVISORS:
            raise ConfigError(f"divisor {divisor} not sampled; use one of {SAMPLE_DIVISORS}")
        keep = set(sample_layout(self.spec.num_requests, divisor))
        return [(x, v) for x, v in zip(self.xs, self.samples[metric]) if x in keep]

    def __eq__(self, other: object) -> bool:
        # Bit-identity with NaN equal to itself: records are determinism
        # witnesses, and an unpickled NaN is a new object, which plain
        # container equality would call unequal.
        if not isinstance(other, SystemRecord):
            return NotImplemented
        return _canonical(self) == _canonical(other)


def _canonical(record: SystemRecord) -> str:
    values = [getattr(record, f.name) for f in fields(record)]
    return json.dumps(values, sort_keys=True, default=repr)


def _extras(engine: CacheEngine, mean_request_size: float) -> dict[str, Any]:
    if isinstance(engine, NemoCache):
        return {
            "mem_breakdown": engine.memory_overhead_breakdown(),
            "flushes": len(engine.fill_rates),
            "pbfg_pool_ratio": engine.pbfg_request_pool_ratio(),
        }
    if isinstance(engine, HierarchicalCacheBase):
        model = engine.model(mean_request_size)
        steady = engine.hset.passive_hist
        early = engine.early_passive_hist
        return {
            "passive_hist": Counter(steady),
            "early_passive_hist": Counter(steady if early is None else early),
            "active_hist": Counter(engine.hset.active_hist),
            "l2swa_p": engine.l2swa("passive"),
            "l2swa_a": engine.l2swa("active"),
            "model_p_mean": model.measured_passive_mean_objects,
            "model_a_mean": model.measured_active_mean_objects,
            "model_l2swa_p": model.l2swa_passive,
        }
    return {}


def run_system(spec: SystemSpec) -> SystemRecord:
    """Build ``spec``'s engine and replay its trace once (spawn-safe:
    the trace is regenerated in-process, only the record travels)."""
    geometry, _ = scale_params(spec.scale)
    trace = twitter_trace(spec.num_requests)
    n = len(trace)
    xs = sorted(set().union(*(sample_layout(n, d) for d in SAMPLE_DIVISORS)))
    engine = spec.build(geometry)
    r = replay(engine, trace, sample_at=xs, sampled_metrics=SAMPLED_METRICS)
    final = r.final
    return SystemRecord(
        spec=spec,
        engine=engine.name,
        final=final,
        xs=tuple(xs),
        samples={m: tuple(r.series[m].values) for m in SAMPLED_METRICS if m in final},
        read_amp=engine.stats.read_amplification,
        mem_bits=engine.memory_overhead_bits_per_object(),
        extras=_extras(engine, trace.mean_request_size),
    )


def system_cell(spec: SystemSpec) -> Cell:
    """The pool cell replaying ``spec`` (equal specs are equal cells)."""
    return Cell(spec.cell_id, run_system, (spec,))
