"""Figure 18 — delayed-flush threshold sensitivity (§5.4).

Sweeps the count-based flush threshold p_th and reports, per setting:
the mean SG fill, the resulting WA, the new objects absorbed per flush,
the objects evicted per flush, and the paper's "profit" ratio
(new objects gained / objects evicted by deferrals).

Paper reference: higher thresholds admit more new objects and lower WA,
but profit has diminishing returns — "when the p_th value increased
from 64 to 1024, the number of new objects only doubled".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import NemoConfig
from repro.experiments.systems import SystemRecord, nemo_system, system_cell
from repro.harness.parallel import Cell
from repro.harness.report import format_table

THRESHOLDS = [1, 8, 64, 256, 1024, 4096]


@dataclass
class Fig18Result:
    rows: list[dict] = field(default_factory=list)

    def format(self) -> str:
        table = format_table(
            [
                "p_th",
                "fill",
                "WA",
                "new objs/flush",
                "evicted/flush",
                "profit (new/evicted)",
                "miss",
            ],
            [
                [
                    r["pth"],
                    r["fill"],
                    r["wa"],
                    r["new_per_flush"],
                    r["evicted_per_flush"],
                    r["profit"],
                    r["miss"],
                ]
                for r in self.rows
            ],
        )
        return "Figure 18: flush-threshold (p_th) sensitivity\n" + table


def cells(scale: str) -> list[Cell]:
    return [
        system_cell(nemo_system(scale, NemoConfig(flush_threshold=pth)))
        for pth in THRESHOLDS
    ]


def assemble(records: list[SystemRecord]) -> Fig18Result:
    result = Fig18Result()
    for pth, rec in zip(THRESHOLDS, records):
        f = rec.final
        flushes = max(1, rec.extras["flushes"])
        new_objs = f["inserts"] - f["writeback_objects"]
        evicted = f["early_evicted_objects"]
        result.rows.append(
            {
                "pth": pth,
                "fill": f["mean_fill_rate"],
                "wa": f["wa"],
                "new_per_flush": new_objs / flushes,
                "evicted_per_flush": evicted / flushes,
                "profit": new_objs / evicted if evicted else float("inf"),
                "miss": f["miss_ratio"],
            }
        )
    return result
