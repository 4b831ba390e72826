"""Plain-text reporting helpers for experiments and EXPERIMENTS.md.

Everything renders as monospace tables/series — the repository has no
plotting dependency, and every figure is reproduced as the *numbers*
behind it (series, CDF points, percentiles), which is what shape
comparison needs.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    float_fmt: str = "{:.2f}",
) -> str:
    """Render an aligned monospace table."""

    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    out = [line(list(headers)), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def cdf_from_counter(hist: Counter[int]) -> list[tuple[int, float]]:
    """Cumulative distribution points from an integer histogram.

    Returns ``(value, P[X <= value])`` pairs in increasing value order —
    the exact form of the paper's Figure 4/5 CDFs ("x % of set writes
    contain no more than k newly written objects").
    """
    total = sum(hist.values())
    if total == 0:
        return []
    out: list[tuple[int, float]] = []
    acc = 0
    for value in sorted(hist):
        acc += hist[value]
        out.append((value, acc / total))
    return out


def mean_from_counter(hist: Counter[int]) -> float:
    total = sum(hist.values())
    if total == 0:
        return float("nan")
    return sum(k * v for k, v in hist.items()) / total
