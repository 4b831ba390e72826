"""Figure 14 — WA evolution over the trace (§5.2).

Tracks cumulative write amplification as a function of executed
operations for Nemo and three FairyWREN configurations.

Paper reference shapes:

- Nemo stays flat (≈1.56 in the paper);
- FW starts ≈1.1 while only HLog absorbs writes, then ramps sharply at
  the first knee (HLog exhausted → passive migration) and again at a
  second knee (flash full → active migration);
- Log20-OP5's first knee comes later (a 4× log drains slower);
- Log5-OP50 ramps more gently after the first knee (narrower hash
  range) and has **no second knee** (active migration rarely occurs at
  50 % OP), though its GC starts earlier (half the capacity).
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

#: (display name, FW log_fraction, FW op_ratio); None = Nemo.
SYSTEMS = [
    ("Nemo", None, None),
    ("FW Log5-OP5", 0.05, 0.05),
    ("FW Log20-OP5", 0.20, 0.05),
    ("FW Log5-OP50", 0.05, 0.50),
]


@dataclass
class Fig14Result:
    wa_series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    final_wa: dict[str, float] = field(default_factory=dict)
    first_knee_ops: dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        rows = []
        for name, series in self.wa_series.items():
            rows.append(
                [
                    name,
                    self.final_wa[name],
                    self.first_knee_ops.get(name, float("nan")),
                ]
            )
        table = format_table(["config", "final WA", "first knee (ops)"], rows)
        return "Figure 14: WA vs trace operations\n" + table


def _first_knee(series: list[tuple[float, float]], threshold: float = 2.0) -> float:
    """First op count where WA exceeds ``threshold`` (the migration knee)."""
    for ops, wa in series:
        if wa == wa and wa > threshold:
            return ops
    return float("nan")


def _spec(scale: str, log_fraction: float | None, op_ratio: float | None) -> SystemSpec:
    if log_fraction is None:
        return nemo_system(scale)
    return system("fw", scale, log_fraction=log_fraction, op_ratio=op_ratio)


def _system_payload(name: str, rec: SystemRecord) -> dict:
    return {
        "name": name,
        "series": rec.series("wa", 256),
        "final_wa": rec.final["wa"],
    }


def cells(scale: str) -> list[Cell]:
    return [system_cell(_spec(scale, lf, op)) for _, lf, op in SYSTEMS]


def assemble(records: list[SystemRecord]) -> Fig14Result:
    result = Fig14Result()
    for (name, _, _), rec in zip(SYSTEMS, records):
        p = _system_payload(name, rec)
        result.wa_series[name] = p["series"]
        result.final_wa[name] = p["final_wa"]
        result.first_knee_ops[name] = _first_knee(p["series"])
    return result
