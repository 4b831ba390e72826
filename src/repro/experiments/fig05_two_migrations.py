"""Figure 5 — CDFs of the two migration paths (paper §3.2.2).

Replays FairyWREN at Log5-OP5 and Log10-OP5 long enough for both
migration paths to be active, then compares the distributions of newly
written objects per set write under passive (Case 2) versus active
(Case 3.2) migration.

Paper reference (Log5-OP5): mean 2.04 new objects per passive write vs
1.03 per active write — the 2× residence-time argument (Observation 3:
L2SWA(A) ≈ 2 × L2SWA(P)).  Note the *measured* mean ratio is < 2
because passive flushes are conditioned on non-empty buckets while
active migration rewrites every valid cold set — the model's
``measured_passive_mean_objects`` / ``measured_active_mean_objects``
capture exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.systems import SystemRecord, system, system_cell
from repro.harness.parallel import Cell
from repro.harness.report import cdf_from_counter, format_table, mean_from_counter

#: (label, log_fraction) for the two configurations the figure compares.
CONFIGS = [("Log5-OP5", 0.05), ("Log10-OP5", 0.10)]


@dataclass
class Fig05Result:
    rows: list[dict] = field(default_factory=list)
    cdfs: dict[str, list[tuple[int, float]]] = field(default_factory=dict)

    def format(self) -> str:
        table = format_table(
            [
                "config",
                "mean passive objs",
                "mean active objs",
                "L2SWA(P)",
                "L2SWA(A)",
                "A/P ratio",
                "model P mean",
                "model A mean",
            ],
            [
                [
                    r["config"],
                    r["mean_passive"],
                    r["mean_active"],
                    r["l2swa_p"],
                    r["l2swa_a"],
                    r["ratio"],
                    r["model_p_mean"],
                    r["model_a_mean"],
                ]
                for r in self.rows
            ],
        )
        return "Figure 5: passive vs active migration\n" + table


def cells(scale: str) -> list[Cell]:
    return [
        system_cell(system("fw", scale, log_fraction=log_fraction, op_ratio=0.05))
        for _, log_fraction in CONFIGS
    ]


def assemble(records: list[SystemRecord]) -> Fig05Result:
    result = Fig05Result()
    for (label, _), rec in zip(CONFIGS, records):
        x = rec.extras
        result.cdfs[f"{label}/passive"] = cdf_from_counter(x["passive_hist"])
        result.cdfs[f"{label}/active"] = cdf_from_counter(x["active_hist"])
        result.rows.append(
            {
                "config": label,
                "mean_passive": mean_from_counter(x["passive_hist"]),
                "mean_active": mean_from_counter(x["active_hist"]),
                "l2swa_p": x["l2swa_p"],
                "l2swa_a": x["l2swa_a"],
                "ratio": (
                    x["l2swa_a"] / x["l2swa_p"]
                    if x["l2swa_p"] == x["l2swa_p"]
                    else float("nan")
                ),
                "model_p_mean": x["model_p_mean"],
                "model_a_mean": x["model_a_mean"],
            }
        )
    return result
