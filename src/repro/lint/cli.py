"""``repro lint`` / ``tools/reprolint`` command-line front end.

Exit status: 0 when clean, 1 when violations were found, 2 on usage
errors — so CI can distinguish "contract violated" from "tool misused".

``--deep`` adds the whole-program pass (call graph + D101-D105; see
DESIGN.md §6): off by default so the hot edit-lint loop stays per-file,
on in CI.  ``--format json|sarif`` renders machine-readable output
(SARIF feeds the code-scanning upload in CI), ``--output`` writes it to
a file, and ``--dead-code`` appends the reachability report (which
never affects the exit status).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.lint.engine import DEFAULT_SCAN_ROOTS, lint_paths
from repro.lint.rules import ALL_RULES

#: Codes valid for ``--select`` beyond the shallow rule table.
EXTRA_CODES = frozenset({"W001", "W002", "D101", "D102", "D103", "D104", "D105"})


def find_repo_root(start: Path | None = None) -> Path:
    """Walk up from ``start`` to the directory holding ``pyproject.toml``."""
    here = (start or Path.cwd()).resolve()
    for candidate in (here, *here.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return here


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "reprolint: determinism & accounting static analysis for the "
            "simulator (rules R001-R008 per file, D101-D105 whole-program "
            "with --deep; see DESIGN.md §6)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files/directories to lint (default: {' '.join(DEFAULT_SCAN_ROOTS)})",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repo root (default: nearest ancestor with pyproject.toml)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--deep",
        action="store_true",
        help=(
            "run the whole-program pass (call graph + D101-D105 + W001); "
            "positional paths are ignored — the project graph always "
            "covers the full scan roots"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--dead-code",
        action="store_true",
        help=(
            "with --deep: append the W002 unreachable-symbol report "
            "(informational; never affects the exit status)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line (violations still print)",
    )
    return parser


def list_rules() -> str:
    from repro.lint.deep.rules import DEEP_RULES

    lines = []
    for rule in ALL_RULES:
        zones = ", ".join(sorted(rule.zones)) if rule.zones else "all scanned files"
        doc = (rule.__doc__ or "").strip().splitlines()[0]
        lines.append(f"{rule.code}  {rule.name}  [{zones}]")
        lines.append(f"      {doc}")
    for code, description, _checker in DEEP_RULES:
        lines.append(f"{code}  [whole-program, --deep]")
        lines.append(f"      {description}")
    lines.append("W001  [report]")
    lines.append("      unused `# reprolint: disable` comment")
    lines.append("W002  [report, --deep --dead-code]")
    lines.append("      symbol unreachable from any entry point")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # Downstream pipe closed early (e.g. `reprolint | head`); detach
        # stdout so the interpreter's flush-at-exit doesn't re-raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _emit_report(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if text and not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(output).write_text(
            text if text.endswith("\n") or not text else text + "\n",
            encoding="utf-8",
        )


def _run(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return 0

    root = Path(args.root).resolve() if args.root else find_repo_root()
    select = None
    if args.select:
        select = {code.strip() for code in args.select.split(",") if code.strip()}
        known = {rule.code for rule in ALL_RULES} | EXTRA_CODES
        unknown = select - known
        if unknown:
            print(
                f"repro lint: unknown rule code(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2

    if args.deep:
        return _run_deep(args, root, select)

    paths = list(args.paths) if args.paths else None
    violations = lint_paths(root, paths, select=select, report_unused=True)
    if args.format == "text":
        for violation in violations:
            print(violation.render())
        if not args.quiet:
            scanned = " ".join(paths or DEFAULT_SCAN_ROOTS)
            status = f"{len(violations)} violation(s)" if violations else "clean"
            print(f"repro lint: {status} in {scanned}")
    else:
        _emit_formatted(args, violations, summary={"mode": "shallow"})
    return 1 if violations else 0


def _run_deep(args, root: Path, select: set[str] | None) -> int:
    from repro.lint.deep.driver import deep_lint

    result = deep_lint(root, select=select, dead_code=args.dead_code)
    if args.format == "text":
        for violation in result.violations:
            print(violation.render())
        for violation in result.dead:
            print(violation.render())
        if not args.quiet:
            n = len(result.violations)
            status = f"{n} violation(s)" if n else "clean"
            stats = result.stats
            print(
                f"repro lint --deep: {status} "
                f"({stats['modules_parsed']} parsed modules, "
                f"{stats['seconds']}s)"
                + (f"; {len(result.dead)} dead symbol(s)" if args.dead_code else "")
            )
    else:
        summary = {"mode": "deep", **result.stats}
        _emit_formatted(args, result.violations + result.dead, summary=summary)
    return 1 if result.violations else 0


def _emit_formatted(args, violations, *, summary) -> None:
    from repro.lint.deep.output import render_json, render_sarif

    if args.format == "json":
        _emit_report(render_json(violations, summary=summary), args.output)
    else:
        _emit_report(render_sarif(violations), args.output)


if __name__ == "__main__":  # pragma: no cover - exercised via tools/reprolint
    sys.exit(main())
