"""Figure 15 — read latency before/after the flash fills (§5.2).

Replays Nemo and FairyWREN with the device latency model attached and
records per-GET service latency; percentiles are split at the point the
flash space is first fully utilised (the paper's red dashed line).

Paper reference: both p50s stable (Nemo ~5 µs ahead); Nemo's p99/p9999
flat around 131 µs / 523 µs while FW fluctuates around 350 µs / 1488 µs
— FW's continuous 4 KiB RMW writes stall subsequent reads, while Nemo's
occasional batched writes interfere far less (§5.2's explanation, which
the channel model in ``flash.latency`` implements directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import CacheEngine
from repro.engines import make_engine
from repro.experiments.common import scale_params, twitter_trace
from repro.flash.latency import LatencyModel
from repro.harness.parallel import Cell
from repro.harness.report import format_table
from repro.harness.runner import LATENCY_PERCENTILES, replay

#: The three systems of the figure, in presentation order, as
#: ``make_engine`` (name, parameters).  Nemo-fullidx is the same engine
#: with the whole PBFG index cached: it isolates the paper's
#: write-interference mechanism from index-pool reads, which at MiB
#: scale miss far more often than the paper's <8 % (see Fig. 19b's
#: scale discussion).
_ENGINES = {
    "Nemo": ("nemo", {}),
    "Nemo-fullidx": ("nemo", {"cached_index_ratio": 1.0}),
    "FW": ("fw", {}),
}
SYSTEMS = tuple(_ENGINES)


@dataclass
class Fig15Result:
    #: engine -> {"before": {q: us}, "after": {q: us}}
    windows: dict[str, dict[str, dict[float, float]]] = field(default_factory=dict)

    def format(self) -> str:
        rows = []
        for name, w in self.windows.items():
            for phase in ("before", "after"):
                p = w[phase]
                rows.append(
                    [name, phase]
                    + [p[q] for q in LATENCY_PERCENTILES]
                )
        table = format_table(
            ["engine", "phase", "p50 (us)", "p99 (us)", "p9999 (us)"],
            rows,
            float_fmt="{:.0f}",
        )
        return "Figure 15: read latency around the flash-full point\n" + table


def _build_system(name: str, geometry, latency: LatencyModel) -> CacheEngine:
    kind, params = _ENGINES[name]
    engine = make_engine(kind, geometry, **params)
    engine.install_latency_model(latency)
    return engine


def _system_cell(scale: str, name: str) -> dict:
    """Replay one system with latency recording (spawn-safe)."""
    geometry, num_requests = scale_params(scale)
    trace = twitter_trace(num_requests)
    engine = _build_system(name, geometry, LatencyModel(num_channels=8))
    r = replay(
        engine,
        trace,
        record_latency=True,
        mark_window_at=num_requests // 2,
        arrival_rate=50_000.0,
    )
    before, after = r.latency.window_percentiles(LATENCY_PERCENTILES)
    return {"name": name, "before": before, "after": after}


def cells(scale: str) -> list[Cell]:
    return [
        Cell(f"fig15/{name}", _system_cell, (scale, name)) for name in SYSTEMS
    ]


def assemble(payloads: list[dict]) -> Fig15Result:
    result = Fig15Result()
    for p in payloads:
        # Percentile keys are floats in-process but strings after a JSON
        # round-trip (the parity goldens); normalise back to floats.
        result.windows[p["name"]] = {
            phase: {float(q): v for q, v in p[phase].items()}
            for phase in ("before", "after")
        }
    return result
