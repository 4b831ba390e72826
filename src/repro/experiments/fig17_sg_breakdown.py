"""Figure 17 — what makes a "perfect" SG (§5.3 ablation).

Runs Nemo with every §4.2 technique combination the paper reports —
naïve, B (buffered in-memory SGs), P (delayed flushing), B+P, and
B+P+W (hotness-aware writeback) — and reports the mean flushed-SG fill
rate plus the resulting WA.

Paper reference: 6.78 % → 31.32 % (B) / 36.77 % (P) → 64.13 % (B+P) →
89.34 % (B+P+W), with "Nemo's ALWA approximately equal to the
reciprocal of the fill rate" at B+P.

Scale note: absolute fill rates run higher here because an SG has
hundreds of sets instead of 275,712 (first-full extreme-value effects
weaken — see ``analysis.fill_model``); the monotone ordering and the
1/fill ≈ WA relation are the reproduced claims.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import NemoConfig
from repro.experiments.common import SIM_FLUSH_THRESHOLD, SIM_SGS_PER_INDEX_GROUP
from repro.experiments.systems import SystemRecord, nemo_system, system_cell
from repro.harness.parallel import Cell, run_cells
from repro.harness.report import format_table

PAPER_FILL = {
    "naive": 0.0678,
    "B": 0.3132,
    "P": 0.3677,
    "B+P": 0.6413,
    "B+P+W": 0.8934,
}


@dataclass
class Fig17Result:
    rows: list[dict] = field(default_factory=list)

    def format(self) -> str:
        table = format_table(
            ["variant", "fill rate", "new-fill rate", "WA", "1/new-fill", "paper fill"],
            [
                [
                    r["variant"],
                    r["fill"],
                    r["new_fill"],
                    r["wa"],
                    r["inv_new_fill"],
                    r["paper_fill"],
                ]
                for r in self.rows
            ],
            float_fmt="{:.3f}",
        )
        return "Figure 17: 'perfect' SG fill-rate breakdown\n" + table


def variant_configs() -> list[tuple[str, NemoConfig]]:
    common = {
        "flush_threshold": SIM_FLUSH_THRESHOLD,
        "sgs_per_index_group": SIM_SGS_PER_INDEX_GROUP,
    }
    return [
        ("naive", NemoConfig.ablation(buffered=False, delayed=False, writeback=False, **common)),
        ("B", NemoConfig.ablation(buffered=True, delayed=False, writeback=False, **common)),
        ("P", NemoConfig.ablation(buffered=False, delayed=True, writeback=False, **common)),
        ("B+P", NemoConfig.ablation(buffered=True, delayed=True, writeback=False, **common)),
        ("B+P+W", NemoConfig.ablation(buffered=True, delayed=True, writeback=True, **common)),
    ]


def cells(scale: str) -> list[Cell]:
    return [system_cell(nemo_system(scale, config)) for _, config in variant_configs()]


def assemble(records: list[SystemRecord]) -> Fig17Result:
    result = Fig17Result()
    for (variant, _), rec in zip(variant_configs(), records):
        new_fill = rec.final["mean_new_fill_rate"]
        result.rows.append(
            {
                "variant": variant,
                "fill": rec.final["mean_fill_rate"],
                "new_fill": new_fill,
                "wa": rec.final["wa"],
                "inv_new_fill": 1.0 / new_fill if new_fill else float("nan"),
                "paper_fill": PAPER_FILL[variant],
            }
        )
    return result


def run(scale: str = "small", jobs: int | None = 1) -> Fig17Result:
    return assemble(run_cells(cells(scale), jobs=jobs))
