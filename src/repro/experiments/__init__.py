"""One module per paper table/figure; see DESIGN.md §2 for the index.

Every experiment exposes ``cells(scale)``, its independent units of
work, and ``assemble(payloads)``, which turns their payloads into a
structured result with a ``format()`` method.  Each is registered in
:data:`repro.experiments.registry.EXPERIMENTS`, and
:func:`~repro.experiments.registry.run_experiment` (or
``python -m repro.experiments``) runs it.

Scales: ``"micro"`` (sub-second cells; tests and ``benchmarks/e2e``),
``"small"`` (seconds) and ``"full"`` (the EXPERIMENTS.md numbers).
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = ["EXPERIMENTS", "get_experiment", "run_experiment"]
