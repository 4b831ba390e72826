"""reprolint: repo-specific determinism & accounting static analysis.

The simulator's evaluation rests on a *byte-identity contract*: the
vectorized/bulk fast paths must produce metrics identical to the scalar
reference, and parallel ``run_cells`` fan-out must be reproducible
cell-for-cell.  Golden-metric tests enforce that contract after the
fact; this package enforces it at lint time, before a single experiment
runs, by refusing the code patterns that historically break it:
wall-clock reads inside the simulation, unseeded randomness,
set-iteration-order dependence, float contamination of integer device
counters and silent broad excepts.  Every rule sees one file at a time;
contracts that span files (flash accounting conservation, the engines'
request signatures) are checked by runtime tests instead.

Run it as ``python -m repro lint`` (or ``tools/reprolint`` in CI).
Suppress a finding with an inline ``# reprolint: disable=R001`` comment
on the offending line (or on a comment-only line directly above it).

See DESIGN.md §6 for the rule table, the contract each rule guards, and
the tests that took over the cross-file contracts.
"""

from __future__ import annotations

from repro.lint.engine import (
    FileContext,
    Violation,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.rules import ALL_RULES, Rule, rules_by_code

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Rule",
    "Violation",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
    "rules_by_code",
]
