"""Figure 6 — over-provisioning's impact on passive migration (§3.2.3).

Sweeps FairyWREN's HSet OP ratio and tracks ``p`` — the fraction of RMW
set writes caused by passive migration — over the trace.  ``p`` starts
at 100 % (an empty HSet triggers no GC), then declines as active
migration begins; a larger OP ratio leaves more GC slack, so fewer
active migrations and a higher steady ``p``.

Paper reference (Observation 4): p stabilises near 25 / 63 / 84 / 96 %
for OP 5 / 20 / 35 / 50 %, with active migration essentially gone above
50 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.systems import SystemRecord, system, system_cell
from repro.harness.parallel import Cell
from repro.harness.report import format_table

OP_RATIOS = [0.05, 0.20, 0.35, 0.50]


@dataclass
class Fig06Result:
    final_p: dict[float, float] = field(default_factory=dict)
    p_series: dict[float, list[tuple[float, float]]] = field(default_factory=dict)

    def format(self) -> str:
        table = format_table(
            ["OP ratio", "final p", "paper p"],
            [
                [f"{op:.0%}", self.final_p[op], f"~{paper:.0%}"]
                for op, paper in zip(OP_RATIOS, [0.25, 0.63, 0.84, 0.96])
                if op in self.final_p
            ],
        )
        return "Figure 6: OP-ratio impact on passive migration share p\n" + table


def cells(scale: str) -> list[Cell]:
    return [
        system_cell(system("fw", scale, log_fraction=0.05, op_ratio=op))
        for op in OP_RATIOS
    ]


def assemble(records: list[SystemRecord]) -> Fig06Result:
    result = Fig06Result()
    for op, rec in zip(OP_RATIOS, records):
        result.final_p[op] = rec.final["p_fraction"]
        # The replay default layout: 64 samples.
        result.p_series[op] = rec.series("p_fraction", 64)
    return result
