"""Discrete-event device lane (DESIGN.md §9).

The analytic :class:`~repro.flash.latency.LatencyModel` collapses each
channel to a ``busy_until`` horizon — exact for open-loop replay, but
unable to express queueing under bursty closed-loop arrivals, priority
classes, or preempted writes.  This subpackage provides the event lane
behind the same surface:

- :class:`~repro.flash.devsim.nand.Die` — per-die NAND queues (fg
  reads, bg reads, writes) with program/erase suspend-resume and read
  prioritisation; residual write work is never lost.  Each die is its
  own clock: :meth:`~repro.flash.devsim.nand.Die.advance` fires its
  pending suspend and completions in time order, with no event queue
  shared between dies.
- :class:`~repro.flash.devsim.model.EventLatencyModel` — the
  ``LatencyModel``-compatible facade an engine carries as its device
  timing (``make_latency_model("event")``, passed as ``latency=`` or
  through ``install_latency_model``); it keeps the device clock and
  advances only the dies a call touches.
- :class:`~repro.flash.devsim.frontend.FrontendScheduler` — open-loop
  and QD-limited closed-loop issue with priority classes, driving any
  service function (the closed-loop replay harness wires it to a cache
  engine).

Aggregate cache counters (WA, miss ratio, op counts) are lane-invariant
by construction — the latency model only times operations, it never
changes what the engines do.  The metric-parity suite asserts this.
"""

from repro.flash.devsim.factory import LATENCY_LANES, make_latency_model
from repro.flash.devsim.frontend import FrontendScheduler
from repro.flash.devsim.model import EventLatencyModel
from repro.flash.devsim.nand import Die, NandOp

__all__ = [
    "Die",
    "NandOp",
    "EventLatencyModel",
    "FrontendScheduler",
    "LATENCY_LANES",
    "make_latency_model",
]
