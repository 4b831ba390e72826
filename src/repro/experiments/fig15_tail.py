"""Figure 15 (tail variant) — closed-loop read-latency QoS (§5.2).

The open-loop ``fig15`` experiment reproduces the paper's percentile
ordering with fixed inter-arrival gaps; this variant replays the same
trace *closed-loop* on the discrete-event device lane (DESIGN.md §9):
bursty seeded arrivals, a bounded queue depth, and two priority
classes (class 0 "interactive", class 1 "batch").  Bursts transiently
exceed device service capacity, so sojourn time = queueing + service —
the regime where FairyWREN's continuous small RMW writes inflate the
read tails while Nemo's occasional batched SG flushes leave them
stable (the paper's §5.2 mechanism, now with queueing on top).

Reported per engine × priority class × window (before/after the
flash-full midpoint): GET sojourn p50/p99/p9999.  The acceptance test
asserts the paper's ordering — FW's after-window p99/p9999 above
Nemo's, Nemo's tails stable across the windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import CacheEngine
from repro.engines import make_engine
from repro.experiments.common import scale_params, twitter_trace
from repro.flash.devsim import make_latency_model
from repro.harness.closed_loop import replay_closed_loop
from repro.harness.parallel import Cell
from repro.harness.report import format_table
from repro.harness.runner import LATENCY_PERCENTILES
from repro.workloads.arrivals import assign_classes, bursty_arrivals

#: The two systems whose tails the paper contrasts, and the
#: ``make_engine`` name of each.
_ENGINES = {"Nemo": "nemo", "FW": "fw"}
SYSTEMS = tuple(_ENGINES)

#: Priority classes: class 0 issues first when a QD slot frees.
CLASS_NAMES = ("interactive", "batch")
CLASS_SHARES = (0.8, 0.2)

#: Closed-loop scenario: mean arrival rate below the 8-channel read
#: capacity (~123k reads/s), bursts at 8x the mean far above it.
ARRIVAL_RATE_RPS = 60_000.0
QUEUE_DEPTH = 16
ARRIVAL_SEED = 7
CLASS_SEED = 11


@dataclass
class Fig15TailResult:
    #: engine -> class name -> {"before"|"after" -> {percentile: us}}
    windows: dict[str, dict[str, dict[str, dict[float, float]]]] = field(
        default_factory=dict
    )

    def format(self) -> str:
        rows = []
        for name, classes in self.windows.items():
            for cls, w in classes.items():
                for phase in ("before", "after"):
                    p = w[phase]
                    rows.append(
                        [name, cls, phase] + [p[q] for q in LATENCY_PERCENTILES]
                    )
        table = format_table(
            ["engine", "class", "phase", "p50 (us)", "p99 (us)", "p9999 (us)"],
            rows,
            float_fmt="{:.0f}",
        )
        return (
            "Figure 15 (tail): closed-loop GET sojourn around the "
            "flash-full point\n" + table
        )


def _build_system(name: str, geometry) -> CacheEngine:
    engine = make_engine(_ENGINES[name], geometry)
    engine.install_latency_model(make_latency_model("event", num_channels=8))
    return engine


def _system_cell(scale: str, name: str) -> dict:
    """Closed-loop replay of one system (spawn-safe)."""
    geometry, num_requests = scale_params(scale)
    trace = twitter_trace(num_requests)
    engine = _build_system(name, geometry)
    result = replay_closed_loop(
        engine,
        trace,
        arrival_us=bursty_arrivals(
            num_requests, ARRIVAL_RATE_RPS, seed=ARRIVAL_SEED
        ),
        class_ids=assign_classes(num_requests, CLASS_SHARES, seed=CLASS_SEED),
        class_names=CLASS_NAMES,
        queue_depth=QUEUE_DEPTH,
    )
    mid = num_requests // 2
    classes: dict[str, dict[str, dict[float, float]]] = {}
    for cid, cls in enumerate(CLASS_NAMES):
        classes[cls] = {
            phase: result.class_percentiles(
                LATENCY_PERCENTILES,
                window=window,
                class_id=cid,
                get_only_ops=trace.ops,
            )
            for phase, window in (
                ("before", (0, mid)),
                ("after", (mid, num_requests)),
            )
        }
    return {"name": name, "classes": classes}


def cells(scale: str) -> list[Cell]:
    return [
        Cell(f"fig15_tail/{name}", _system_cell, (scale, name))
        for name in SYSTEMS
    ]


def assemble(payloads: list[dict]) -> Fig15TailResult:
    result = Fig15TailResult()
    for p in payloads:
        # Percentile keys survive JSON round-trips as strings (like the
        # fig15 goldens); normalise back to floats.
        result.windows[p["name"]] = {
            cls: {
                phase: {float(q): v for q, v in w[phase].items()}
                for phase in ("before", "after")
            }
            for cls, w in p["classes"].items()
        }
    return result
