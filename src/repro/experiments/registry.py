"""Experiment registry: map figure/table ids to runnable callables.

``python -m repro.experiments [exp_id ...] [--scale small|full] [-j N]``
runs experiments and prints their formatted results; with no arguments
it lists what exists.  ``benchmarks/e2e`` runs the same registry as
its ``figures_micro`` workload.

Every experiment module exposes a ``cells(scale)`` /
``assemble(payloads)`` pair (fig08 and appendixA are one-cell
experiments); :func:`run_experiments` pools *all* cells of all
requested experiments into one process pool, so independent
experiments run concurrently and their internal sweeps interleave —
with results collected in a fixed order so the output is identical to
a serial run.

Most cells are *system runs* (:mod:`repro.experiments.systems`): one
engine configuration replaying one trace.  The paper's figures reuse
the same Table 4 systems, so the pool runs each distinct cell once and
fans its record out to every experiment that asked for it — at micro
scale the whole registry replays 23 systems, not 39.  Unknown ids fail
with one ``KeyError`` (listing the known ids) on every path.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from types import ModuleType

from repro.errors import ConfigError
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


def _module(exp_id: str) -> ModuleType:
    """The one id lookup: unknown ids raise a ``KeyError`` listing the
    known ones, on every path (registry API and CLI alike)."""
    try:
        module_name, _ = _SPECS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(_SPECS)}"
        ) from None
    return importlib.import_module(module_name)


def get_experiment(exp_id: str) -> Experiment:
    _module(exp_id)  # imports it, or raises the one unknown-id KeyError
    return Experiment(exp_id=exp_id, description=_SPECS[exp_id][1])


def run_experiment(exp_id: str, *, scale: str = "small", jobs: int | None = 1):
    """Run one experiment; ``jobs`` fans its cells out."""
    return run_experiments([exp_id], scale=scale, jobs=jobs)[0]


def run_experiments(
    exp_ids: list[str], *, scale: str = "small", jobs: int | None = 1
) -> list:
    """Run several experiments, pooling every parallelisable cell.

    Returns the result objects in ``exp_ids`` order.  Every experiment
    contributes its cells to one shared pool.  Each distinct ``(fn,
    args, kwargs)`` runs once and its payload goes to every experiment
    that listed it — a system run (``systems.py``)
    shared by several figures replays once.  Two different cells under
    one id are a :class:`ConfigError`, never a silent share.  Output is
    deterministic: identical to running each experiment serially with
    ``jobs=1``.
    """
    pool: list[Cell] = []
    index: dict[tuple, int] = {}
    keys_by_id: dict[str, tuple] = {}
    plans: list[tuple[ModuleType, list[int]]] = []
    for exp_id in exp_ids:
        module = _module(exp_id)
        positions = []
        for cell in module.cells(scale):
            key = (cell.fn, cell.args, tuple(sorted(cell.kwargs.items())))
            if keys_by_id.setdefault(cell.cell_id, key) != key:
                raise ConfigError(
                    f"cell id {cell.cell_id!r} names two different cells"
                )
            if key not in index:
                index[key] = len(pool)
                pool.append(cell)
            positions.append(index[key])
        plans.append((module, positions))
    payloads = run_cells(pool, jobs=jobs)
    return [
        module.assemble([payloads[i] for i in positions])
        for module, positions in plans
    ]


EXPERIMENTS: tuple[str, ...] = tuple(_SPECS)
