"""``repro lint`` / ``tools/reprolint`` command-line front end.

Exit status: 0 when clean, 1 when violations were found, 2 on usage
errors — so CI can distinguish "contract violated" from "tool misused".
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.lint.engine import DEFAULT_SCAN_ROOTS, lint_paths
from repro.lint.rules import ALL_RULES

#: Codes valid for ``--select`` beyond the rule table.
EXTRA_CODES = frozenset({"W001"})


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
            "simulator (per-file rules R001-R006; see DESIGN.md §6)."
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
    lines = []
    for rule in ALL_RULES:
        zones = ", ".join(sorted(rule.zones)) if rule.zones else "all scanned files"
        doc = (rule.__doc__ or "").strip().splitlines()[0]
        lines.append(f"{rule.code}  {rule.name}  [{zones}]")
        lines.append(f"      {doc}")
    lines.append("W001  [report]")
    lines.append("      unused `# reprolint: disable` comment")
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

    paths = list(args.paths) if args.paths else None
    violations = lint_paths(root, paths, select=select, report_unused=True)
    for violation in violations:
        print(violation.render())
    if not args.quiet:
        scanned = " ".join(paths or DEFAULT_SCAN_ROOTS)
        status = f"{len(violations)} violation(s)" if violations else "clean"
        print(f"repro lint: {status} in {scanned}")
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via tools/reprolint
    sys.exit(main())
