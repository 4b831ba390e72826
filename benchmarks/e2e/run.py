#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the Nemo simulator.

    python3 benchmarks/e2e/run.py --workload fig12_wa --seed 0 --seconds 20 --trace 0

runs one workload (all four when ``--workload`` is omitted) and prints,
as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1`` (a layer a workload bypasses reads 0).  See README.md
beside this file for the glossary and the interaction table.

Each workload runs in fresh child processes of this script: the timed
passes (or the traced pass) in one, and one before and one after it that
only set up, so ``setup_s`` — child start to the start of the first
timed pass — is a median of three.  ``wall_s`` and ``cpu_s`` are those of the fastest timed
pass (median, spread and every sample are kept beside them); simulated
outputs must be bit-identical across passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
MANIFEST = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("fig12_wa", "columnar_fill", "fig15_qos", "figures_micro")

#: Timed passes per run: as many as fit in ``--seconds``, at least this
#: many so one disturbed pass does not decide the result.
MIN_PASSES = 3
#: Host time of a pass is its undisturbed cost plus whatever neighbouring
#: VMs took from it, so the fastest pass is the steadier estimate: over
#: ten 3-pass runs on this box the fastest pass had an inter-quartile
#: spread of 4.5 % of its median, the median pass 7.7 %.
FASTEST = min
#: Layer self-times must sum to the traced wall within this share.
ACCOUNTING_TOLERANCE = 0.05
#: All children of one workload's run must end within this.
RUN_TIMEOUT_S = 170


# ----------------------------------------------------------------------
# Child side: one workload, in this process
# ----------------------------------------------------------------------
def load_workload(name: str, seed: int, quick: bool) -> Any:
    # Spawned pool workers inherit sys.path; both entries must lead.
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from scenarios import WORKLOADS

    return WORKLOADS[name](seed, quick)


def verify(workload: Any, passes: list[Any], extra: dict[str, list[str]]) -> dict[str, list[str]]:
    """cell -> problems: per-cell accounting checks on every pass,
    bit-identical simulated outputs across passes, plus ``extra``."""
    problems: dict[str, list[str]] = {k: list(v) for k, v in extra.items()}
    for i, p in enumerate(passes):
        for cell, first in zip(p.cells, passes[0].cells):
            found = workload.check_cell(cell)
            if cell.fingerprint() != first.fingerprint():
                found.append(f"pass {i} outputs differ from pass 0")
            if found:
                problems.setdefault(cell.name, []).extend(found)
    return problems


def outcome(passes: list[Any], problems: dict[str, list[str]]) -> dict[str, Any]:
    attempted = sum(c.requests for p in passes for c in p.cells)
    failed = sum(c.requests for p in passes for c in p.cells if c.name in problems)
    for cell, found in problems.items():
        for text in found:
            print(f"FAILED {cell}: {text}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed}


def peak_rss_mib() -> float:
    kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024


def summarise(values: list[float], pick: Any = statistics.median) -> dict[str, Any]:
    """One reported value out of a run's samples, with the others beside it."""
    med = statistics.median(values)
    return {
        "value": pick(values),
        "median": med,
        "min": min(values),
        "spread": (max(values) - min(values)) / med,
        "samples": values,
    }


def child_measure(workload: Any, seconds: float) -> dict[str, Any]:
    workload.setup()
    ready = time.time()
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - t0
        if workload.quick or (
            len(passes) >= MIN_PASSES and elapsed + passes[-1].wall_s > seconds
        ):
            break
    problems = verify(workload, passes, workload.after_passes(passes))
    metrics = {
        "wall_s": summarise([p.wall_s for p in passes], FASTEST),
        "cpu_s": summarise([p.cpu_s for p in passes], FASTEST),
        "peak_rss_mib": {"value": peak_rss_mib()},
    }
    for name, value in workload.headline(passes[0]).items():
        metrics[name] = {"value": value}
    return {
        "ready_epoch": ready,
        "passes": len(passes),
        "seed_note": workload.seed_note,
        "metrics": metrics,
        **outcome(passes, problems),
    }


def child_trace(workload: Any) -> dict[str, Any]:
    from spans import SpanRecorder

    rec = SpanRecorder()
    workload.setup(rec)
    # Untraced passes on both sides of the traced one; the faster is the
    # base, so a cold first pass does not read as negative overhead.
    before = workload.run_pass()
    traced = workload.run_pass(rec)
    after = workload.run_pass()
    extra = workload.after_passes([traced], rec)
    self_sum = rec.self_sum("pass")
    if abs(self_sum / traced.wall_s - 1.0) > ACCOUNTING_TOLERANCE:
        extra.setdefault("pass", []).append(
            f"layer self-times sum to {self_sum:.3f}s of {traced.wall_s:.3f}s traced wall"
        )
    metrics = workload.trace_extras(rec)
    metrics.update(workload.layer_metrics(rec.totals(), rec, traced))
    metrics["trace_overhead_share"] = traced.wall_s / min(before.wall_s, after.wall_s) - 1.0
    metrics["trace_self_sum_share"] = self_sum / traced.wall_s
    passes = [before, traced, after]
    result = outcome(passes, verify(workload, passes, extra))
    metrics["failed_share"] = result["failed"] / result["attempted"]
    rec.dump(OUT_DIR / f"{workload.name}.spans.json")
    return {
        "seed_note": workload.seed_note,
        "metrics": {k: {"value": v} for k, v in metrics.items()},
        **result,
    }


def child_main(args: argparse.Namespace) -> None:
    workload = load_workload(args.workload, args.seed, args.quick)
    if args.child == "setup":
        workload.setup()
        payload = {"ready_epoch": time.time()}
    elif args.child == "measure":
        payload = child_measure(workload, args.seconds)
    else:
        payload = child_trace(workload)
    print(json.dumps(payload))


# ----------------------------------------------------------------------
# Parent side: children, the manifest and the printed result
# ----------------------------------------------------------------------
def spawn(phase: str, name: str, args: argparse.Namespace, deadline: float) -> dict[str, Any]:
    """Run one child phase to its end; its last stdout line is its result."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", phase,
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]  # fmt: skip
    if args.quick:
        cmd.append("--quick")
    started = time.time()
    # Its own session, so a timeout also stops the pool workers it spawned.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"{name}: run exceeded {RUN_TIMEOUT_S}s in its {phase} child")
    if proc.returncode != 0:
        sys.exit(f"{name}: {phase} child exited with code {proc.returncode}")
    payload = json.loads(stdout.strip().splitlines()[-1])
    if "ready_epoch" in payload:
        payload["setup_s"] = payload.pop("ready_epoch") - started
    return payload


def run_workload(name: str, args: argparse.Namespace, manifest: dict[str, Any]) -> dict[str, Any]:
    """One workload's result, its metrics exactly those the manifest declares."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    if args.trace:
        result = spawn("trace", name, args, deadline)
        declared = manifest["per_layer"]
    else:
        # One set-up probe before the measuring child and one after it:
        # spread over the run, a loud few seconds spoil one sample only.
        probe = [] if args.quick else ["setup"]
        phases = [*probe, "measure", *probe]
        runs = [spawn(phase, name, args, deadline) for phase in phases]
        result = runs[len(probe)]
        result["metrics"]["setup_s"] = summarise([r.pop("setup_s") for r in runs])
        declared = manifest["end_to_end"]
    measured = result["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        sys.exit(f"{name}: metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for spec in declared:
        if spec["name"] in measured:
            metrics[spec["name"]] = {**measured[spec["name"]], "unit": spec["unit"]}
        elif args.trace:
            # A layer this workload bypasses did no work.
            metrics[spec["name"]] = {"value": 0.0, "unit": spec["unit"]}
        else:
            sys.exit(f"{name}: end-to-end metric {spec['name']} was not measured")
    result["metrics"] = metrics
    return result


def printed(result: dict[str, Any]) -> dict[str, Any]:
    """The printed result: exactly the four keys, value and unit only."""
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()
        },
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed passes fill this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true", help="1/10 requests, 1 pass, no drive cells"
    )
    parser.add_argument("--out", type=Path, help="write the full results here (for --compare)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--child", choices=("setup", "measure", "trace"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare, json.loads(MANIFEST.read_text()))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark needs the simulator sources under {ROOT / 'src'}")
    if args.child:
        child_main(args)
        return 0
    manifest = json.loads(MANIFEST.read_text())
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results = {name: run_workload(name, args, manifest) for name in names}
    document = {
        "seed": args.seed,
        "quick": args.quick,
        "trace": args.trace,
        "workloads": results,
    }
    OUT_DIR.mkdir(exist_ok=True)
    for name, result in results.items():
        kind = "layers" if args.trace else "metrics"
        (OUT_DIR / f"{name}.{kind}.json").write_text(json.dumps(result, indent=1))
    if args.out:
        args.out.write_text(json.dumps(document, indent=1))
    if args.workload:
        print(json.dumps(printed(results[args.workload])))
    else:
        print(json.dumps({n: printed(r) for n, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
