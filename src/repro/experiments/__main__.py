"""CLI: run paper experiments.

Usage::

    python -m repro.experiments                 # list experiments
    python -m repro.experiments fig12 table6    # run selected (small)
    python -m repro.experiments --scale full all
    python -m repro.experiments -j 4 fig12      # fan cells over 4 workers

``--jobs`` parallelises across processes at the *cell* level (one
independent configuration of one experiment per job).  Several ids run
as one pooled suite at any ``--jobs`` (``-j 1`` included), so a system
run that several figures share — default Nemo, FW Log5-OP5 — replays
once.  Unknown ids are a usage error (exit 2) listing the known ones.
Results are deterministic: any jobs value produces byte-identical
metrics to a serial run — see DESIGN.md §5.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import (
    EXPERIMENTS,
    get_experiment,
    run_experiment,
    run_experiments,
)
from repro.harness.parallel import default_jobs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (or 'all'); empty lists what exists",
    )
    parser.add_argument(
        "--scale",
        choices=["micro", "small", "full"],
        default="small",
        help=(
            "micro = the test suite's sub-second cells (CI smoke); "
            "small = seconds per experiment; full = EXPERIMENTS.md scale"
        ),
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help=(
            "worker processes for independent experiment cells "
            f"(default: cpu_count-1 = {default_jobs()}; 1 = serial)"
        ),
    )
    args = parser.parse_args(argv)

    if not args.experiments:
        print("Available experiments:")
        for exp_id in EXPERIMENTS:
            print(f"  {exp_id:10s} {get_experiment(exp_id).description}")
        return 0

    targets = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    try:
        experiments = [get_experiment(exp_id) for exp_id in targets]
    except KeyError as exc:
        parser.error(exc.args[0])
    jobs = default_jobs() if args.jobs is None else max(1, args.jobs)

    if len(targets) > 1:
        # One pool for every cell of every experiment, at any jobs
        # value: experiments run concurrently and each shared system
        # run replays once for all of them.
        t0 = time.perf_counter()
        results = run_experiments(targets, scale=args.scale, jobs=jobs)
        for exp, result in zip(experiments, results):
            print(f"=== {exp.exp_id}: {exp.description} (scale={args.scale}) ===")
            print(result.format())
            print()
        print(
            f"[{len(targets)} experiments took "
            f"{time.perf_counter() - t0:.1f}s with jobs={jobs}]"
        )
        return 0

    (exp,) = experiments
    print(f"=== {exp.exp_id}: {exp.description} (scale={args.scale}) ===")
    t0 = time.perf_counter()
    result = run_experiment(exp.exp_id, scale=args.scale, jobs=jobs)
    print(result.format())
    print(f"[{exp.exp_id} took {time.perf_counter() - t0:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
