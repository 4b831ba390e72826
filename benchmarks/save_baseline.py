"""Record benchmark baselines as compact JSON.

Runs the pytest-benchmark suites and distils their ``--benchmark-json``
output into small files at the repo root:

- ``BENCH_core_ops.json`` — ops/sec for the data-path primitives
  (engine insert/lookup, bloom add/query, zipf sampling, latency model);
- ``BENCH_replay.json`` — end-to-end replay throughput (requests/sec)
  for the seed-reference loop, the fast path, the instrumented path and
  the columnar lane (including the fig15 micro acceptance
  cells with their hard floors: Log kernel 5M req/s, Nemo kernel
  2.5M req/s), plus the fast-over-seed, columnar-over-batched (Log and
  Nemo) and vs-pre-columnar speedups;
- ``BENCH_engines.json`` — per-engine fig12 replay throughput (Log,
  Set, FW, KG, Nemo), plus each cell's speedup over the wall-clock
  recorded just before the engine-datapath optimisation, the
  request-pipeline vectorisation and the columnar-kernel change;
- ``BENCH_cluster.json`` — sharded-cluster replay (DESIGN.md §8):
  1-shard and 8-shard critical-path capacity plus the metered lane,
  with the 8-over-1 capacity scaling ratio ``check_regression.py``
  floors at 3x;
- ``BENCH_devsim.json`` — device-lane replay (DESIGN.md §9): the fig15
  micro Nemo cell on the analytic and event lanes plus the closed-loop
  fig15_tail datapath, with the event-over-analytic capacity ratio
  ``check_regression.py`` floors at 0.1x (event within 10x of
  analytic).

Usage::

    python benchmarks/save_baseline.py            # all suites
    python benchmarks/save_baseline.py --only replay
    python benchmarks/save_baseline.py --only cluster
    python benchmarks/save_baseline.py --quick    # engines, 1 round (CI)

Numbers are machine-dependent; the files exist to track the *trajectory*
of the simulator's throughput across changes, not as portable truth.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Benchmarks whose per-call unit is one replayed request, not one call.
_REPLAY_BENCHES = {
    "test_replay_seed_reference",
    "test_replay_fast_path",
    "test_replay_instrumented",
    "test_replay_columnar",
    "test_replay_fig15_micro_columnar",
    "test_replay_fig15_micro_nemo_batched",
    "test_replay_fig15_micro_nemo_columnar",
}

#: fig12 micro-cell wall-clock (best-of-2 seconds, reference dev machine)
#: recorded immediately *before* the engine-datapath optimisation
#: (bucket-indexed GC, array tables, marker payloads, batched
#: relocation).  ``BENCH_engines.json`` reports current timings as
#: speedups over these; the acceptance floor for that change was KG
#: >= 2x.  Machine-dependent like every number here — the ratio is the
#: signal, not the seconds.
_PRE_OPT_CELL_SECONDS = {
    "Log": 0.055,
    "Set": 0.224,
    "FW": 0.316,
    "KG": 4.207,
    "Nemo": 0.214,
}

#: Same cells, recorded immediately *before* the request-pipeline
#: vectorisation (batched replay dispatch + engine ``lookup_many`` /
#: ``insert_many`` bulk paths + event-batched latency model).  The
#: acceptance floor for that change was >= 1.5x requests/sec on the
#: Nemo and FW cells.
_PRE_VECTORIZATION_CELL_SECONDS = {
    "Log": 0.056,
    "Set": 0.256,
    "FW": 0.347,
    "KG": 0.703,
    "Nemo": 0.222,
}

#: Same cells, recorded immediately *before* the whole-trace columnar
#: kernel change (DESIGN.md §5: trace-wide hash columns, array
#: decision passes, precomputed placement offsets).  The batched lane
#: itself benefits — engines now consume one vectorised offset column
#: instead of re-hashing per request.
#:
#: NOTE on sub-1.0 ratios: these references and the current timings
#: come from different sessions of a shared box whose wall-clock
#: wobbles by 30-40% (a stored FW ``speedup_vs_pre_columnar`` of 0.87
#: re-measured at 1.23 the next day on identical code).  Treat a ratio
#: within that band as box noise, not a regression; the hard gates are
#: the ``floor_requests_per_sec`` ratchets in ``check_regression.py``,
#: which compare like-for-like within one recording session.
_PRE_COLUMNAR_CELL_SECONDS = {
    "Log": 0.0593,
    "Set": 0.4189,
    "FW": 0.2480,
    "KG": 1.0619,
    "Nemo": 0.1970,
}

#: Replay-suite wall-clock recorded immediately *before* the columnar
#: kernel change (same box, same rounds); ``BENCH_replay.json`` reports
#: speedups over these.  The seed-reference loop is untouched by the
#: columnar change, so it carries no entry here.
_PRE_COLUMNAR_REPLAY_SECONDS = {
    "test_replay_fast_path": 0.1203,
    "test_replay_instrumented": 0.1312,
}


def run_suite(bench_file: str, env: dict[str, str] | None = None) -> list[dict]:
    """Run one benchmark file; return pytest-benchmark's records."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = Path(tmp.name)
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(REPO_ROOT / "benchmarks" / bench_file),
                "-q",
                "--benchmark-json",
                str(tmp_path),
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env=env,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"{bench_file} failed (exit {proc.returncode})")
        return json.loads(tmp_path.read_text())["benchmarks"]
    finally:
        tmp_path.unlink(missing_ok=True)


def summarise(records: list[dict]) -> dict[str, dict]:
    """name -> {mean_s, min_s, ops_per_sec [, requests_per_sec]}."""
    out: dict[str, dict] = {}
    for record in records:
        name = record["name"]
        stats = record["stats"]
        entry = {
            "mean_s": stats["mean"],
            "min_s": stats["min"],
            "ops_per_sec": 1.0 / stats["min"] if stats["min"] else None,
        }
        extra = record.get("extra_info") or {}
        if "num_requests" in extra:
            entry["requests_per_sec"] = extra["num_requests"] / stats["min"]
            entry["extra_info"] = extra
        out[name] = entry
    return out


def _write(path: Path, payload: dict) -> None:
    payload["python"] = platform.python_version()
    payload["platform"] = platform.platform()
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def save_core_ops() -> None:
    benches = summarise(run_suite("bench_core_ops.py"))
    _write(REPO_ROOT / "BENCH_core_ops.json", {"benchmarks": benches})


def save_replay() -> None:
    benches = summarise(run_suite("bench_replay.py"))
    payload: dict = {"benchmarks": benches}
    seed = benches.get("test_replay_seed_reference")
    fast = benches.get("test_replay_fast_path")
    if seed and fast:
        payload["speedup_fast_over_seed"] = seed["min_s"] / fast["min_s"]
    columnar = benches.get("test_replay_columnar")
    if fast and columnar:
        payload["speedup_columnar_over_batched"] = (
            fast["min_s"] / columnar["min_s"]
        )
    nemo_batched = benches.get("test_replay_fig15_micro_nemo_batched")
    nemo_columnar = benches.get("test_replay_fig15_micro_nemo_columnar")
    if nemo_batched and nemo_columnar:
        nemo_speedup = nemo_batched["min_s"] / nemo_columnar["min_s"]
        payload["speedup_nemo_columnar_over_batched"] = nemo_speedup
        nemo_columnar.setdefault("extra_info", {})[
            "speedup_vs_batched"
        ] = nemo_speedup
    speedups = {}
    for name, before_s in _PRE_COLUMNAR_REPLAY_SECONDS.items():
        record = benches.get(name)
        if record and record["min_s"]:
            speedups[name] = before_s / record["min_s"]
            record.setdefault("extra_info", {})[
                "speedup_vs_pre_columnar"
            ] = speedups[name]
    payload["pre_columnar_replay_seconds"] = _PRE_COLUMNAR_REPLAY_SECONDS
    payload["speedup_vs_pre_columnar"] = speedups
    _write(REPO_ROOT / "BENCH_replay.json", payload)


def save_engines(*, quick: bool = False) -> None:
    env = dict(os.environ)
    if quick:
        env["BENCH_ENGINE_ROUNDS"] = "1"
    benches = summarise(run_suite("bench_engines.py", env=env))
    payload: dict = {"benchmarks": benches}
    for label, reference in (
        ("pre_optimization", _PRE_OPT_CELL_SECONDS),
        ("pre_vectorization", _PRE_VECTORIZATION_CELL_SECONDS),
        ("pre_columnar", _PRE_COLUMNAR_CELL_SECONDS),
    ):
        speedups = {}
        for engine, before_s in reference.items():
            record = benches.get(f"test_engine_replay[{engine}]")
            if record and record["min_s"]:
                speedups[engine] = before_s / record["min_s"]
                record.setdefault("extra_info", {})[
                    f"speedup_vs_{label}"
                ] = speedups[engine]
        payload[f"{label}_cell_seconds"] = reference
        payload[f"speedup_vs_{label}"] = speedups
    _write(REPO_ROOT / "BENCH_engines.json", payload)


def save_cluster() -> None:
    benches = summarise(run_suite("bench_cluster.py"))
    payload: dict = {"benchmarks": benches}
    one = benches.get("test_cluster_replay_1shard")
    eight = benches.get("test_cluster_replay_8shard")
    if one and eight:
        cap1 = (one.get("extra_info") or {}).get("capacity_requests_per_sec")
        cap8 = (eight.get("extra_info") or {}).get("capacity_requests_per_sec")
        if cap1 and cap8:
            payload["capacity_scaling_8_over_1"] = cap8 / cap1
    _write(REPO_ROOT / "BENCH_cluster.json", payload)


def save_devsim() -> None:
    benches = summarise(run_suite("bench_devsim.py"))
    payload: dict = {"benchmarks": benches}
    analytic = benches.get("test_devsim_replay_analytic")
    event = benches.get("test_devsim_replay_event")
    if analytic and event:
        cap_a = (analytic.get("extra_info") or {}).get(
            "capacity_requests_per_sec"
        )
        cap_e = (event.get("extra_info") or {}).get("capacity_requests_per_sec")
        if cap_a and cap_e:
            payload["capacity_event_over_analytic"] = cap_e / cap_a
    _write(REPO_ROOT / "BENCH_devsim.json", payload)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only",
        choices=["core_ops", "replay", "engines", "cluster", "devsim"],
        default=None,
        help="record just one suite (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="engines suite only, one round per engine (CI smoke)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        save_engines(quick=True)
        return 0
    if args.only in (None, "core_ops"):
        save_core_ops()
    if args.only in (None, "replay"):
        save_replay()
    if args.only in (None, "engines"):
        save_engines()
    if args.only in (None, "cluster"):
        save_cluster()
    if args.only in (None, "devsim"):
        save_devsim()
    return 0


if __name__ == "__main__":
    sys.exit(main())
