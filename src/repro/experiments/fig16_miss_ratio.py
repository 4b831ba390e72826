"""Figure 16 — miss-ratio trend of Nemo vs FairyWREN (§5.2).

Paper reference: "Nemo and FW exhibit similar miss ratios, as Nemo's
hotness-aware writeback mechanism keeps hot objects in the cache, and
the working set of hot data is smaller than the cache space for both
systems."  The reproduced signal: the two curves converge, and Nemo
stays within a couple of points of FW at steady state despite its
SG-level eviction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.systems import SystemRecord, nemo_system, system, system_cell
from repro.harness.parallel import Cell, run_cells
from repro.harness.report import format_table

#: The two systems the figure compares, in presentation order.
SYSTEMS = ("Nemo", "FW")


@dataclass
class Fig16Result:
    miss_series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    final_miss: dict[str, float] = field(default_factory=dict)
    #: miss ratio over the last quarter of the trace (steady state).
    steady_miss: dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        rows = [
            [name, self.final_miss[name], self.steady_miss[name]]
            for name in self.miss_series
        ]
        table = format_table(
            ["engine", "cumulative miss", "steady-state miss"],
            rows,
            float_fmt="{:.3f}",
        )
        return "Figure 16: miss-ratio trend (Nemo vs FW)\n" + table


def _system_payload(name: str, rec: SystemRecord) -> dict:
    """One system's miss-ratio rows, sampled every ``n // 128``."""
    # Steady state: misses over the last quarter, from the hit and
    # lookup deltas (cumulative miss ratio hides late behaviour).
    hits = rec.series("hits", 128)
    lookups = rec.series("lookups", 128)
    q = 3 * len(hits) // 4
    dh = hits[-1][1] - hits[q][1]
    dl = lookups[-1][1] - lookups[q][1]
    return {
        "name": name,
        "series": rec.series("miss_ratio", 128),
        "final_miss": rec.final["miss_ratio"],
        "steady_miss": 1.0 - dh / dl if dl else float("nan"),
    }


def cells(scale: str) -> list[Cell]:
    return [
        system_cell(nemo_system(scale)),
        system_cell(system("fw", scale, log_fraction=0.05, op_ratio=0.05)),
    ]


def assemble(records: list[SystemRecord]) -> Fig16Result:
    result = Fig16Result()
    for name, rec in zip(SYSTEMS, records):
        p = _system_payload(name, rec)
        result.miss_series[name] = p["series"]
        result.final_miss[name] = p["final_miss"]
        result.steady_miss[name] = p["steady_miss"]
    return result


def run(scale: str = "small", jobs: int | None = 1) -> Fig16Result:
    return assemble(run_cells(cells(scale), jobs=jobs))
