"""Closed-loop trace replay through the devsim frontend scheduler.

The open-loop :func:`~repro.harness.runner.replay` advances the clock
by a fixed inter-arrival gap per request — load never queues at the
host.  This module replays the same traces *closed-loop*: arrivals come
from a seeded process (:mod:`repro.workloads.arrivals`), at most
``queue_depth`` requests are outstanding, excess arrivals wait in
priority-class FIFOs, and sojourn time (completion − arrival) includes
the queueing delay.  That is the regime where the paper's Fig. 15
mechanism — FW's continuous small writes versus Nemo's occasional
batched flushes — turns into visibly different p99/p9999 tails, which
the ``fig15_tail`` experiment reports per engine and priority class.

Each request is served by the engine's own closure
(:meth:`~repro.baselines.base.CacheEngine.service_fn`), whose semantics
per index are exactly the scalar replay loop's: GET = lookup +
read-through insert on a miss, SET = insert (host-acked from the DRAM
buffer, service 0 — flash interference still happens via the device
model), DELETE = delete.  Aggregate engine counters are therefore the
open-loop replay's counters whenever the request *order* matches; only
the timestamps differ.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.baselines.base import CacheEngine
from repro.errors import ConfigError
from repro.flash.devsim.frontend import FrontendScheduler
from repro.workloads.trace import OP_GET, Trace


@dataclass
class ClosedLoopResult:
    """Everything one closed-loop replay produced."""

    engine_name: str
    trace_name: str
    num_requests: int
    queue_depth: int | None
    final: dict[str, float]
    #: Per-request timestamps (µs), index-aligned with the trace.
    arrival_us: np.ndarray
    issue_us: np.ndarray
    complete_us: np.ndarray
    #: Priority class per request (class 0 = highest priority).
    class_ids: np.ndarray
    class_names: tuple[str, ...] = ("all",)
    #: Peak in-flight requests observed (≤ queue_depth when bounded).
    max_outstanding: int = 0
    events_fired: int = 0

    @property
    def sojourn_us(self) -> np.ndarray:
        """Per-request sojourn (queueing + service) in µs."""
        out: np.ndarray = self.complete_us - self.arrival_us
        return out

    def class_percentiles(
        self,
        percentiles: Sequence[float],
        *,
        window: tuple[int, int] | None = None,
        class_id: int | None = None,
        get_only_ops: np.ndarray | None = None,
    ) -> dict[float, float]:
        """Sojourn percentiles over an index window / class / op filter.

        ``get_only_ops`` (the trace's op column) restricts to GETs —
        the paper's read-latency view; SET/DELETE sojourns are host-ack
        times, not device reads.  Returns NaN for empty selections.
        """
        mask = np.ones(self.num_requests, dtype=bool)
        if window is not None:
            lo, hi = window
            mask[:lo] = False
            mask[hi:] = False
        if class_id is not None:
            mask &= self.class_ids == class_id
        if get_only_ops is not None:
            mask &= get_only_ops == OP_GET
        selected = self.sojourn_us[mask]
        if selected.size == 0:
            return {float(q): float("nan") for q in percentiles}
        return {
            float(q): float(np.percentile(selected, q)) for q in percentiles
        }


def replay_closed_loop(
    engine: CacheEngine,
    trace: Trace,
    *,
    arrival_us: np.ndarray,
    class_ids: np.ndarray | None = None,
    class_names: tuple[str, ...] = ("all",),
    queue_depth: int | None = 64,
) -> ClosedLoopResult:
    """Replay ``trace`` closed-loop against ``engine``.

    The engine must carry a device latency model (either lane —
    install one via ``CacheEngine.install_latency_model`` or the
    engines' ``latency=`` constructor parameter); without one every
    service time is zero and the closed loop degenerates to open loop.
    """
    n = len(trace)
    if len(arrival_us) != n:
        raise ConfigError(
            f"arrival_us has {len(arrival_us)} entries for {n} requests"
        )
    if engine.latency_model() is None:
        raise ConfigError(
            f"closed-loop replay needs a device latency model on "
            f"{engine.name}; install one via install_latency_model() or "
            "the engine's latency= parameter"
        )
    if class_ids is None:
        class_ids = np.zeros(n, dtype=np.int64)
    if len(class_ids) != n:
        raise ConfigError(
            f"class_ids has {len(class_ids)} entries for {n} requests"
        )

    frontend = FrontendScheduler(
        arrival_us,
        class_ids=class_ids,
        num_classes=len(class_names),
        queue_depth=queue_depth,
    )
    fired = frontend.run(engine.service_fn(trace))

    return ClosedLoopResult(
        engine_name=engine.name,
        trace_name=trace.name,
        num_requests=n,
        queue_depth=queue_depth,
        final=engine.metrics_snapshot(),
        arrival_us=np.asarray(arrival_us, dtype=np.float64),
        # The frontend's own buffers, shared rather than copied.
        issue_us=np.frombuffer(frontend.issue_us, dtype=np.float64),
        complete_us=np.frombuffer(frontend.complete_us, dtype=np.float64),
        class_ids=np.asarray(class_ids, dtype=np.int64),
        class_names=class_names,
        max_outstanding=frontend.max_outstanding,
        events_fired=fired,
    )
