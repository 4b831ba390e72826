"""Appendix A — PBFG accuracy vs read amplification.

Evaluates Eq. 10 at the paper's parameters (N = 350 SGs, 4 KiB pages,
246 B objects) over a sweep of bloom-filter false-positive rates, in
both the continuous form and the paper's discrete instantiation
(40-object filters, whole-byte sizes, whole filters per page).

Paper reference: at 0.1 % the worst-case lookup costs ≈ 7 + 1 + 0.35
flash reads; tightening to 0.01 % *increases* the total to
≈ 9 + 1 + 0.03 — more accuracy is not free.  The experiment also
reports the continuous-model optimum, which lands near the paper's
deployed 0.1 %.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.pbfg_model import PBFGTradeoff, optimal_false_positive_rate
from repro.harness.parallel import Cell
from repro.harness.report import format_table

FP_SWEEP = [0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001, 0.00001]


@dataclass
class AppendixResult:
    rows: list[dict] = field(default_factory=list)
    optimum_fp: float = float("nan")

    def format(self) -> str:
        table = format_table(
            ["fp rate", "index pages (discrete)", "object reads", "total reads"],
            [
                [f"{r['fp']:.5f}", r["index_pages"], r["object_reads"], r["total"]]
                for r in self.rows
            ],
        )
        return (
            "Appendix A: PBFG accuracy vs read amplification (N=350)\n"
            + table
            + f"\ncontinuous-model optimal fp rate: {self.optimum_fp:.4%}"
        )


def cells(scale: str) -> list[Cell]:
    # Purely analytic: one scale-independent cell.
    return [Cell("appendixA", _evaluate)]


def assemble(payloads: list[AppendixResult]) -> AppendixResult:
    (result,) = payloads
    return result


def _evaluate() -> AppendixResult:
    tradeoff = PBFGTradeoff(num_sgs=350, page_size=4096, object_size=246)
    result = AppendixResult()
    for fp in FP_SWEEP:
        result.rows.append(
            {
                "fp": fp,
                "index_pages": tradeoff.index_pages_discrete(fp),
                "object_reads": tradeoff.object_reads(fp),
                "total": tradeoff.total_reads_discrete(fp),
            }
        )
    result.optimum_fp = optimal_false_positive_rate(tradeoff)
    return result
