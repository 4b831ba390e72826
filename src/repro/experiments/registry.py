"""Experiment registry: map figure/table ids to runnable callables.

``python -m repro.experiments [exp_id ...] [--scale small|full] [-j N]``
runs experiments and prints their formatted results; with no arguments
it lists what exists.  ``benchmarks/e2e`` runs the same registry as
its ``figures_micro`` workload.

Experiments whose sweeps are embarrassingly parallel expose a
``cells(scale)`` / ``assemble(payloads)`` pair next to ``run``;
:func:`run_experiments` pools *all* cells of all requested experiments
into one process pool, so independent experiments run concurrently and
their internal sweeps interleave — with results collected in a fixed
order so the output is identical to a serial run.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import Callable

from repro.harness.parallel import Cell, run_cells

#: exp id -> (module, description).  Modules are imported lazily so that
#: importing the registry stays cheap.
_SPECS: dict[str, tuple[str, str]] = {
    "fig04": (
        "repro.experiments.fig04_passive_migration",
        "Passive-migration CDF and measured vs modelled L2SWA(P)",
    ),
    "fig05": (
        "repro.experiments.fig05_two_migrations",
        "Passive vs active migration CDFs; L2SWA(A) ≈ 2·L2SWA(P)",
    ),
    "fig06": (
        "repro.experiments.fig06_op_impact",
        "OP-ratio impact on the passive RMW fraction p",
    ),
    "fig08": (
        "repro.experiments.fig08_hash_skew",
        "Short-term hash skew: fill of remaining sets at first-full",
    ),
    "fig12": (
        "repro.experiments.fig12_wa_main",
        "Steady-state WA of Log/Set/FW/KG/Nemo (+FW variants, 12b)",
    ),
    "fig13": (
        "repro.experiments.fig13_writes_per_minute",
        "Flash writes per minute at steady state (Nemo/FW/KG)",
    ),
    "fig14": (
        "repro.experiments.fig14_wa_trend",
        "WA vs trace operations (Nemo vs FW configurations)",
    ),
    "fig15": (
        "repro.experiments.fig15_read_latency",
        "Read latency p50/p99/p9999 before/after flash is full",
    ),
    "fig15_tail": (
        "repro.experiments.fig15_tail",
        "Closed-loop GET sojourn tails on the event device lane",
    ),
    "fig16": (
        "repro.experiments.fig16_miss_ratio",
        "Miss-ratio trend (Nemo vs FW)",
    ),
    "fig17": (
        "repro.experiments.fig17_sg_breakdown",
        "'Perfect' SG fill-rate breakdown (naive/B/P/B+P/B+P+W)",
    ),
    "fig18": (
        "repro.experiments.fig18_pth_sensitivity",
        "Flush-threshold sweep: fill-rate gain, WA, profit",
    ),
    "fig19": (
        "repro.experiments.fig19_pbfg",
        "Set-access skew (19a) and PBFG index-pool misses (19b)",
    ),
    "table6": (
        "repro.experiments.table6_memory",
        "Metadata memory overhead (bits per object)",
    ),
    "appendixA": (
        "repro.experiments.appendix_pbfg_tradeoff",
        "PBFG accuracy vs read-amplification trade-off",
    ),
    "cluster": (
        "repro.experiments.cluster_crossover",
        "Sharded-cluster crossover: Nemo vs FW/KG over shard count × skew",
    ),
}


@dataclass(frozen=True)
class Experiment:
    exp_id: str
    description: str
    run: Callable


def get_experiment(exp_id: str) -> Experiment:
    try:
        module_name, description = _SPECS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(_SPECS)}"
        ) from None
    module = importlib.import_module(module_name)
    return Experiment(exp_id=exp_id, description=description, run=module.run)


def run_experiment(exp_id: str, *, scale: str = "small", jobs: int | None = 1):
    """Run one experiment; ``jobs`` fans its cells out when supported."""
    run = get_experiment(exp_id).run
    if jobs != 1 and "jobs" in inspect.signature(run).parameters:
        return run(scale=scale, jobs=jobs)
    return run(scale=scale)


def _whole_experiment_cell(exp_id: str, scale: str):
    """Pool job for experiments without a ``cells``/``assemble`` split."""
    return get_experiment(exp_id).run(scale=scale)


def run_experiments(
    exp_ids: list[str], *, scale: str = "small", jobs: int | None = 1
) -> list:
    """Run several experiments, pooling every parallelisable cell.

    Returns the result objects in ``exp_ids`` order.  Experiments that
    expose ``cells``/``assemble`` contribute their individual cells to
    one shared pool; the rest run as single whole-experiment cells.
    Output is deterministic: identical to running each experiment
    serially with ``jobs=1``.
    """
    pool_cells: list[Cell] = []
    plans: list[tuple[str, object, int]] = []  # (exp_id, module|None, #cells)
    for exp_id in exp_ids:
        module_name, _ = _SPECS[exp_id]
        module = importlib.import_module(module_name)
        if hasattr(module, "cells") and hasattr(module, "assemble"):
            exp_cells = module.cells(scale)
            plans.append((exp_id, module, len(exp_cells)))
            pool_cells.extend(exp_cells)
        else:
            plans.append((exp_id, None, 1))
            pool_cells.append(
                Cell(exp_id, _whole_experiment_cell, (exp_id, scale))
            )
    payloads = run_cells(pool_cells, jobs=jobs)
    results, pos = [], 0
    for _exp_id, module, count in plans:
        chunk = payloads[pos : pos + count]
        pos += count
        results.append(module.assemble(chunk) if module else chunk[0])
    return results


EXPERIMENTS: tuple[str, ...] = tuple(_SPECS)
