"""``run.py --compare A.json B.json``: is B worse than A?

A and B are result files written by ``run.py --out`` (same seed and
mode).  For every workload x metric present in both, B's median is set
against A's and judged by the bound ``BENCHMARK.json`` fixes:

``ok``          B is no worse than A by more than the bound.
``BREACH``      B is worse than A by more than the bound.
``unresolved``  the spread between a run's timed passes exceeds the
                bound, so the run cannot tell a regression from noise —
                unless every pass of B reads better than every pass of A.
``same``        a simulated (``*_sim``) value is bit-identical, as a
                deterministic simulator must be at the same seed.
``CHANGED``     a simulated value differs: a speed-only change must not
                do that; a model-fidelity change claims exactly this.
``info``        a per-layer metric: no bound, the difference is shown.

Exit code 1 on any BREACH or CHANGED, or when B fails more operations.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any


def worse_by(a: float, b: float, better: str) -> float:
    """Share of A by which B is worse (negative when B is better)."""
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def judge(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any], same_inputs: bool) -> str:
    va, vb = a["value"], b["value"]
    if spec["unit"].endswith("_sim"):
        if not same_inputs:
            return "skipped"
        return "same" if va == vb else "CHANGED"
    bound = spec.get("bound")
    if bound is None or va == 0:
        return "info"
    if max(a.get("spread", 0.0), b.get("spread", 0.0)) > bound:
        sa, sb = a.get("samples", [va]), b.get("samples", [vb])
        b_always_better = all(
            worse_by(x, y, spec["better"]) < 0 for x in sa for y in sb
        )
        return "ok" if b_always_better else "unresolved"
    return "BREACH" if worse_by(va, vb, spec["better"]) > bound else "ok"


def compare(a_path: Path, b_path: Path, manifest: dict[str, Any]) -> int:
    a, b = json.loads(a_path.read_text()), json.loads(b_path.read_text())
    specs = {m["name"]: m for m in manifest["end_to_end"] + manifest["per_layer"]}
    same_inputs = (a["seed"], a["quick"]) == (b["seed"], b["quick"])
    if not same_inputs:
        print("inputs differ (seed or --quick): simulated metrics are skipped")
    bad = 0
    print(f"{'workload':14} {'metric':42} {'A':>14} {'B':>14} {'worse':>8} {'bound':>6}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        if rb["failed"] > ra["failed"]:
            bad += 1
            print(f"{workload:14} failed operations rose from {ra['failed']} to {rb['failed']}: BREACH")
        for name, ma in ra["metrics"].items():
            mb = rb["metrics"].get(name)
            if mb is None or (ma["value"] == 0 and mb["value"] == 0):
                continue  # a layer this workload bypasses
            spec = specs[name]
            verdict = judge(ma, mb, spec, same_inputs)
            bad += verdict in ("BREACH", "CHANGED")
            worse = worse_by(ma["value"], mb["value"], spec["better"]) if ma["value"] else float("nan")
            bound = f"{spec['bound']:.0%}" if "bound" in spec else "-"
            print(
                f"{workload:14} {name:42} {ma['value']:14.6g} {mb['value']:14.6g} "
                f"{worse:+8.1%} {bound:>6}  {verdict}"
            )
    print(f"{bad} breach(es)")
    return 1 if bad else 0
