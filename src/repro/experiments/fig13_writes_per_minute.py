"""Figure 13 — flash writes per minute at steady state (§5.2).

Replays Nemo, FW, and KG with a simulated arrival clock and buckets
host-write bytes into one-minute windows.

Paper reference: "Nemo only incurs occasional small writes, while FW
and KG experience continuous writes, with KG's flash writes per minute
significantly higher than FW's.  Additionally, Nemo performs batched
writes, whereas FW and KG's writes are almost entirely set-level
requests."  The reproduced signals: Nemo has many zero-write minutes
and large bursts (whole-SG flushes); FW/KG write every minute; mean
bytes/minute ordering KG > FW ≫ Nemo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.systems import SystemRecord, nemo_system, system, system_cell
from repro.harness.metrics import WindowedRate
from repro.harness.parallel import Cell
from repro.harness.runner import ARRIVAL_RATE
from repro.harness.report import format_table


@dataclass
class Fig13Result:
    rows: list[dict] = field(default_factory=list)
    rate_series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)

    def format(self) -> str:
        table = format_table(
            [
                "engine",
                "mean MiB/min",
                "zero-write minutes",
                "burstiness (max/mean)",
                "mean write size (KiB)",
            ],
            [
                [
                    r["engine"],
                    r["mean_mib_per_min"],
                    f"{r['zero_fraction']:.0%}",
                    r["burstiness"],
                    r["mean_write_kib"],
                ]
                for r in self.rows
            ],
        )
        return "Figure 13: flash writes per minute at steady state\n" + table


def cells(scale: str) -> list[Cell]:
    return [
        system_cell(nemo_system(scale)),
        system_cell(system("fw", scale, log_fraction=0.05, op_ratio=0.05)),
        system_cell(system("kg", scale, log_fraction=0.05, op_ratio=0.05)),
    ]


def write_rates(rec: SystemRecord, window_s: float) -> list[tuple[float, float]]:
    """Host-write bytes per ``window_s`` simulated seconds.

    Rebuilt from the record's ``n // 512`` samples: window deltas depend
    on where ``WindowedRate.update`` is called, so it sees exactly the
    points (and times) a replay sampling every ``n // 512`` fed it.
    The clock is the same left fold of per-request steps the replay
    loop runs (``harness.columnar.sim_clock``).
    """
    n = rec.spec.num_requests
    clock = np.add.accumulate(np.full(n, 1e6 / ARRIVAL_RATE))
    rate = WindowedRate(window_s)
    for x, value in rec.series("host_write_bytes", 512):
        rate.update(float(clock[x - 1]) / 1e6, value)
    rate.finish(float(clock[n - 1]) / 1e6 if n else 0.0)
    return rate.rates


def assemble(records: list[SystemRecord]) -> Fig13Result:
    result = Fig13Result()
    for rec in records:
        # The simulated run spans n / arrival_rate seconds; use 64
        # windows so "per-minute" buckets exist at any trace length.
        window_s = max(1e-3, rec.spec.num_requests / ARRIVAL_RATE / 64.0)
        rates = write_rates(rec, window_s)
        # Steady state: ignore the warm-up half.
        steady = [v for _, v in rates[len(rates) // 2 :]]
        arr = np.asarray(steady if steady else [0.0])
        ops = rec.final["host_write_ops"]
        mean_write = rec.final["host_write_bytes"] / ops if ops else float("nan")
        result.rate_series[rec.engine] = rates
        result.rows.append(
            {
                "engine": rec.engine,
                # Normalise window bytes to a per-minute rate.
                "mean_mib_per_min": float(arr.mean()) / 2**20 * (60.0 / window_s),
                "zero_fraction": float((arr == 0).mean()),
                "burstiness": float(arr.max() / arr.mean()) if arr.mean() else float("nan"),
                "mean_write_kib": mean_write / 1024,
            }
        )
    return result
