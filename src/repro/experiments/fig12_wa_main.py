"""Figure 12 — steady-state write amplification of the five systems.

(a) Log / Set / FW / KG / Nemo under their Table 4 configurations, plus
memory overhead (bits/obj) and read amplification (§5.5).
(b) FW variants — Log20-OP5 and Log5-OP50 — versus Nemo: even with 4 ×
the log or half the flash given away, FW stays well above Nemo.

Paper reference points: Log 1.08, Set 16.31, FW 15.2, KG 55.59,
Nemo 1.56; FW Log20-OP5 → 4.12, FW Log5-OP50 → 6.56; Nemo's read
amplification is >3 × FW's but parallelisable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.systems import (
    SystemRecord,
    SystemSpec,
    nemo_system,
    system,
    system_cell,
)
from repro.harness.parallel import Cell
from repro.harness.report import format_table

PAPER_WA = {"Log": 1.08, "Set": 16.31, "FW": 15.2, "KG": 55.59, "Nemo": 1.56}
PAPER_WA_VARIANTS = {"FW Log20-OP5": 4.12, "FW Log5-OP50": 6.56}


@dataclass
class Fig12Result:
    main_rows: list[dict] = field(default_factory=list)
    variant_rows: list[dict] = field(default_factory=list)

    def format(self) -> str:
        a = format_table(
            ["engine", "WA", "paper WA", "miss", "mem bits/obj", "read amp"],
            [
                [
                    r["engine"],
                    r["wa"],
                    r["paper_wa"],
                    r["miss"],
                    r["mem_bits"],
                    r["read_amp"],
                ]
                for r in self.main_rows
            ],
        )
        b = format_table(
            ["config", "WA", "paper WA"],
            [[r["config"], r["wa"], r["paper_wa"]] for r in self.variant_rows],
        )
        return (
            "Figure 12a: steady-state write amplification\n"
            + a
            + "\n\nFigure 12b: FW variants vs Nemo\n"
            + b
        )


def table4_systems(scale: str) -> list[SystemSpec]:
    """The five Table 4 engines at their paper configurations."""
    return [
        system("log", scale),
        system("set", scale, op_ratio=0.5),
        system("fw", scale, log_fraction=0.05, op_ratio=0.05),
        system("kg", scale, log_fraction=0.05, op_ratio=0.05),
        nemo_system(scale),
    ]


def build_engines(geometry):
    """The five Table 4 engines at their paper configurations."""
    # The scale only sets the trace length, which building ignores.
    return [spec.build(geometry) for spec in table4_systems("small")]


#: The Fig. 12b FW variants.
VARIANTS = [
    ("FW Log20-OP5", {"log_fraction": 0.20, "op_ratio": 0.05}),
    ("FW Log5-OP50", {"log_fraction": 0.05, "op_ratio": 0.50}),
]


def _main_row(rec: SystemRecord) -> dict:
    return {
        "engine": rec.engine,
        "wa": rec.final["wa"],
        "paper_wa": PAPER_WA[rec.engine],
        "miss": rec.final["miss_ratio"],
        "mem_bits": rec.mem_bits,
        "read_amp": rec.read_amp,
    }


def _variant_row(label: str, rec: SystemRecord) -> dict:
    return {"config": label, "wa": rec.final["wa"], "paper_wa": PAPER_WA_VARIANTS[label]}


def cells(scale: str) -> list[Cell]:
    specs = table4_systems(scale)
    specs += [system("fw", scale, **kw) for _, kw in VARIANTS]
    return [system_cell(spec) for spec in specs]


def assemble(records: list[SystemRecord]) -> Fig12Result:
    result = Fig12Result()
    result.main_rows = [_main_row(rec) for rec in records[: len(PAPER_WA)]]
    result.variant_rows = [
        _variant_row(label, rec)
        for (label, _), rec in zip(VARIANTS, records[len(PAPER_WA) :])
    ]
    nemo_row = next(r for r in result.main_rows if r["engine"] == "Nemo")
    result.variant_rows.append(
        {"config": "Nemo", "wa": nemo_row["wa"], "paper_wa": PAPER_WA["Nemo"]}
    )
    return result
