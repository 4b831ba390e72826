"""Figure 4 — passive object migration (paper §3.2.1).

Replays the merged Twitter workload against FairyWREN under three
configurations and reports the CDF of newly-written objects per passive
set write plus measured-vs-modelled L2SWA(P):

- **Log5-OP5** (the default), split into *Early* (before the first GC)
  and *Steady* (full run) distributions — the paper finds them nearly
  identical (Observation 1);
- **Log20-OP5** — a 4× larger HLog right-shifts the CDF but only
  mildly (Observation 2);
- **Log5-OP50** — halving usable sets does the same, at the cost of
  half the flash (Observation 2).

All three are shared system runs (``experiments/systems.py``): the
*Early* histogram is the record's ``early_passive_hist``.

Paper reference points (Log5-OP5): 71 % of set writes carry ≤3 new
objects, 91 % carry ≤4; measured L2SWA(P) 8.5 vs theory ≈9 (Eq. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.systems import SystemRecord, system, system_cell
from repro.harness.parallel import Cell
from repro.harness.report import cdf_from_counter, format_table, mean_from_counter

#: (label, log_fraction, op_ratio) of the three configurations.
CONFIGS = [
    ("Log5-OP5", 0.05, 0.05),
    ("Log20-OP5", 0.20, 0.05),
    ("Log5-OP50", 0.05, 0.50),
]


@dataclass
class Fig04Result:
    rows: list[dict] = field(default_factory=list)
    cdfs: dict[str, list[tuple[int, float]]] = field(default_factory=dict)

    def format(self) -> str:
        table = format_table(
            [
                "config",
                "phase",
                "P[<=3 objs]",
                "P[<=4 objs]",
                "mean objs/write",
                "L2SWA(P) measured",
                "L2SWA(P) model",
            ],
            [
                [
                    r["config"],
                    r["phase"],
                    r["p_le3"],
                    r["p_le4"],
                    r["mean_objs"],
                    r["l2swa_p_measured"],
                    r["l2swa_p_model"],
                ]
                for r in self.rows
            ],
        )
        return "Figure 4: passive object migration\n" + table


def cells(scale: str) -> list[Cell]:
    return [
        system_cell(system("fw", scale, log_fraction=log_fraction, op_ratio=op_ratio))
        for _, log_fraction, op_ratio in CONFIGS
    ]


def assemble(records: list[SystemRecord]) -> Fig04Result:
    result = Fig04Result()
    for (label, _, _), rec in zip(CONFIGS, records):
        x = rec.extras
        phases = [("early", x["early_passive_hist"]), ("steady", x["passive_hist"])]
        if label != "Log5-OP5":
            phases = phases[1:]  # the paper splits phases only for the default
        for phase, hist in phases:
            cdf = cdf_from_counter(hist)
            result.cdfs[f"{label}/{phase}"] = cdf
            result.rows.append(
                {
                    "config": label,
                    "phase": phase,
                    "p_le3": max((pp for v, pp in cdf if v <= 3), default=0.0),
                    "p_le4": max((pp for v, pp in cdf if v <= 4), default=0.0),
                    "mean_objs": mean_from_counter(hist),
                    "l2swa_p_measured": x["l2swa_p"],
                    "l2swa_p_model": x["model_l2swa_p"],
                }
            )
    return result
