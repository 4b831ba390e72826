"""Table 6 — metadata memory overhead in bits per object (§5.5).

Two views:

- the **analytic** column set, straight from ``analysis.memory_model``
  at the paper's parameters (FW 9.9, naïve Nemo 30.4, Nemo 8.3);
- a **measured** Nemo figure from a live engine after a replay, whose
  ``memory_overhead_bits_per_object`` applies the same accounting to
  the engine's actual configuration and object sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.memory_model import (
    fairywren_bits_per_object,
    naive_nemo_bits_per_object,
    nemo_bits_per_object,
)
from repro.experiments.common import scale_params
from repro.experiments.systems import SystemRecord, nemo_system, system_cell
from repro.harness.parallel import Cell, run_cells
from repro.harness.report import format_table

PAPER = {"FairyWREN": 9.9, "naive Nemo": 30.4, "Nemo": 8.3}


@dataclass
class Table6Result:
    analytic: dict[str, float] = field(default_factory=dict)
    measured_nemo: float = float("nan")
    measured_breakdown: dict[str, float] = field(default_factory=dict)

    def format(self) -> str:
        rows = [
            [name, bits, PAPER[name]] for name, bits in self.analytic.items()
        ]
        rows.append(["Nemo (measured engine)", self.measured_nemo, PAPER["Nemo"]])
        table = format_table(["system", "bits/obj", "paper"], rows, float_fmt="{:.1f}")
        parts = ", ".join(
            f"{k}={v:.1f}b" for k, v in self.measured_breakdown.items()
        )
        return (
            "Table 6: metadata memory overhead\n"
            + table
            + f"\nmeasured Nemo breakdown: {parts}"
            + "\n(the fixed one-group buffer term is ~0.8 b at the paper's"
            " 2 TB scale; it dominates only on MiB-scale devices)"
        )


#: The measured engine replays at most this many requests.
MAX_REQUESTS = 200_000


def cells(scale: str) -> list[Cell]:
    num_requests = min(scale_params(scale)[1], MAX_REQUESTS)
    return [system_cell(nemo_system(scale, num_requests=num_requests))]


def assemble(records: list[SystemRecord]) -> Table6Result:
    (rec,) = records
    result = Table6Result()
    result.analytic = {
        "FairyWREN": fairywren_bits_per_object(log_fraction=0.05),
        "naive Nemo": naive_nemo_bits_per_object(0.001),
        "Nemo": nemo_bits_per_object(
            index_buffer_bytes=1077 * 2**20,
            capacity_bytes=2 * 2**40,
            mean_object_size=200.0,
        ),
    }
    result.measured_nemo = rec.mem_bits
    result.measured_breakdown = rec.extras["mem_breakdown"]
    return result


def run(scale: str = "small", jobs: int | None = 1) -> Table6Result:
    return assemble(run_cells(cells(scale), jobs=jobs))
