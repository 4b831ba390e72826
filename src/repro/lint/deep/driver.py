"""The ``--deep`` orchestrator: shallow pass + whole-program rules.

``deep_lint`` runs the per-file rules first, then parses the project
and runs D101-D105.  The optional dead-code report (``--dead-code``)
rides the same project but never affects the exit status — it is a
report, not a gate.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.deep.deadcode import find_dead
from repro.lint.deep.project import load_project
from repro.lint.deep.rules import DEEP_RULES, discover_anchors
from repro.lint.engine import Violation, lint_paths


@dataclass
class DeepResult:
    """Everything one ``repro lint --deep`` run produced."""

    violations: list[Violation] = field(default_factory=list)
    dead: list[Violation] = field(default_factory=list)
    #: modules parsed, and wall time in seconds.
    stats: dict[str, float] = field(default_factory=dict)


def deep_lint(
    root: Path,
    *,
    select: Iterable[str] | None = None,
    dead_code: bool = False,
) -> DeepResult:
    """Run the shallow pass plus D101-D105 over the repo at ``root``."""
    started = time.perf_counter()
    wanted = set(select) if select is not None else None

    violations = lint_paths(root, select=wanted, report_unused=True)

    project = load_project(root)
    anchors = discover_anchors(project)
    for code, _description, checker in DEEP_RULES:
        if wanted is not None and code not in wanted:
            continue
        violations.extend(checker(project, anchors))

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    dead = find_dead(project) if dead_code else []
    return DeepResult(
        violations=violations,
        dead=dead,
        stats={
            "modules_parsed": len(project.modules),
            "seconds": round(time.perf_counter() - started, 3),
        },
    )
