"""One module per paper table/figure; see DESIGN.md §2 for the index.

Every experiment exposes ``run(scale=...)`` returning a structured
result with a ``format()`` method, and registers itself in
:data:`repro.experiments.registry.EXPERIMENTS` so the benchmark harness
and ``python -m repro.experiments`` can enumerate them.

Scales: ``"small"`` (seconds; used by tests and ``benchmarks/e2e``) and
``"full"`` (the EXPERIMENTS.md numbers; tens of seconds per engine).
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = ["EXPERIMENTS", "get_experiment", "run_experiment"]
