"""reprolint driver: file discovery, parsing, suppression, dispatch.

The engine is deliberately small: it turns files into
:class:`FileContext` objects (source + AST + zone + suppressions) and
hands each context to every applicable rule in
:data:`repro.lint.rules.ALL_RULES`.  All repo-specific knowledge lives
in the rules themselves.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

#: Directories (relative to the repo root) reprolint scans by default.
DEFAULT_SCAN_ROOTS = ("src/repro", "benchmarks", "tests")

#: ``# reprolint: disable=R001`` or ``disable=R001,R003`` or ``disable=all``.
_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Token types that carry no code: a line holding only these is a
#: comment-only line.
_NON_CODE_TOKENS = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
        tokenize.ENCODING,
    }
)


@dataclass(frozen=True)
class Violation:
    """One rule finding at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class SuppressionComment:
    """One ``# reprolint: disable=...`` comment and the lines it silences."""

    line: int
    codes: frozenset[str]
    effective_lines: tuple[int, ...]

    def silences(self, line: int, code: str) -> bool:
        return line in self.effective_lines and (
            "all" in self.codes or code in self.codes
        )


@dataclass
class FileContext:
    """Everything a rule needs to inspect one file."""

    path: str
    source: str
    tree: ast.Module
    zone: str
    #: The file's suppression comments, in source order.
    suppressions: list[SuppressionComment] = field(default_factory=list)

    def is_suppressed(self, line: int, code: str) -> bool:
        return any(c.silences(line, code) for c in self.suppressions)


def classify_zone(rel_path: str) -> str:
    """Map a repo-relative path to a lint zone.

    Zones let rules scope themselves: the determinism rules bite only
    inside the simulated world (``core``/``flash``/``baselines``/
    ``workloads``) while the harness and CLI may touch the wall clock.
    """
    parts = Path(rel_path).parts
    if parts[:2] == ("src", "repro"):
        if len(parts) >= 4:
            return parts[2]  # core, flash, baselines, workloads, harness, ...
        return "repro"  # top-level modules: cli.py, hashing.py, errors.py
    if parts[:1] == ("benchmarks",):
        return "benchmarks"
    if parts[:1] == ("tests",):
        return "tests"
    if parts[:1] == ("examples",):
        return "examples"
    return "other"


def parse_suppression_comments(source: str) -> list[SuppressionComment]:
    """Genuine ``# reprolint: disable=...`` comments, found by tokenize.

    Only comment tokens count, so the syntax quoted inside a string or
    docstring silences nothing.  A comment on a code line silences that
    line; a comment alone on its line silences itself and the next line
    (so long statements can be annotated without overflowing).
    """
    code_lines: set[int] = set()
    found: list[tuple[int, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                found.append((tok.start[0], tok.string))
            elif tok.type not in _NON_CODE_TOKENS:
                code_lines.update(range(tok.start[0], tok.end[0] + 1))
    except (tokenize.TokenError, SyntaxError):
        return []
    comments: list[SuppressionComment] = []
    for lineno, text in found:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = frozenset(c.strip() for c in match.group(1).split(",") if c.strip())
        effective = (lineno,) if lineno in code_lines else (lineno, lineno + 1)
        comments.append(SuppressionComment(lineno, codes, effective))
    return comments


def build_context(path: str, source: str, zone: str | None = None) -> FileContext:
    """Parse ``source`` into a :class:`FileContext` (raises SyntaxError)."""
    tree = ast.parse(source, filename=path)
    return FileContext(
        path=path,
        source=source,
        tree=tree,
        zone=classify_zone(path) if zone is None else zone,
        suppressions=parse_suppression_comments(source),
    )


def iter_python_files(
    root: Path, scan_roots: Sequence[str] = DEFAULT_SCAN_ROOTS
) -> Iterator[Path]:
    """Yield the ``.py`` files under ``root``'s scan directories, sorted."""
    for scan in scan_roots:
        base = root / scan
        if base.is_file() and base.suffix == ".py":
            yield base
        elif base.is_dir():
            yield from sorted(base.rglob("*.py"))


def unused_suppression_violations(
    ctx: FileContext,
    raw_violations: Sequence[Violation],
    ran_codes: set[str],
) -> list[Violation]:
    """W001: ``# reprolint: disable=CODE`` comments that silence nothing.

    A code is only judged when its rule actually ran on this file
    (``ran_codes``) — otherwise a ``--select`` run would flag every
    suppression as stale.
    """
    out: list[Violation] = []
    for comment in ctx.suppressions:
        lines = comment.effective_lines
        for code in sorted(comment.codes):
            if code == "all":
                judged = bool(ran_codes)
                used = any(v.line in lines for v in raw_violations)
            else:
                judged = code in ran_codes
                used = any(
                    v.line in lines and v.code == code for v in raw_violations
                )
            if judged and not used:
                out.append(
                    Violation(
                        path=ctx.path,
                        line=comment.line,
                        col=0,
                        code="W001",
                        message=(
                            f"unused suppression: disable={code} "
                            "silences no finding on its effective lines"
                        ),
                    )
                )
    return out


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    zone: str | None = None,
    select: Iterable[str] | None = None,
    report_unused: bool = False,
) -> list[Violation]:
    """Lint a source string; ``zone`` overrides path-based zoning.

    This is the entry point the linter's own unit tests use: fixture
    snippets claim a zone explicitly instead of living at a real path.
    ``report_unused`` adds W001 findings for stale suppressions (the CLI
    turns it on; unit-test fixtures that exercise suppression semantics
    keep the default off).
    """
    from repro.lint.rules import ALL_RULES

    ctx = build_context(path, source, zone=zone)
    wanted = set(select) if select is not None else None
    raw: list[Violation] = []
    ran_codes: set[str] = set()
    for rule in ALL_RULES:
        if wanted is not None and rule.code not in wanted:
            continue
        if not rule.applies(ctx):
            continue
        ran_codes.add(rule.code)
        raw.extend(rule.check(ctx))
    violations = [v for v in raw if not ctx.is_suppressed(v.line, v.code)]
    if report_unused and (wanted is None or "W001" in wanted):
        violations.extend(unused_suppression_violations(ctx, raw, ran_codes))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations


def lint_file(
    path: Path,
    rel_path: str,
    *,
    select: Iterable[str] | None = None,
    report_unused: bool = False,
) -> list[Violation]:
    source = path.read_text(encoding="utf-8")
    try:
        return lint_source(
            source, rel_path, select=select, report_unused=report_unused
        )
    except SyntaxError as exc:
        return [
            Violation(
                path=rel_path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                code="E999",
                message=f"syntax error: {exc.msg}",
            )
        ]


def lint_paths(
    root: Path,
    paths: Sequence[str] | None = None,
    *,
    select: Iterable[str] | None = None,
    report_unused: bool = False,
) -> list[Violation]:
    """Lint files under ``root``; ``paths`` defaults to the scan roots."""
    scan_roots = tuple(paths) if paths else DEFAULT_SCAN_ROOTS
    violations: list[Violation] = []
    for file_path in iter_python_files(root, scan_roots):
        rel = file_path.relative_to(root).as_posix()
        violations.extend(
            lint_file(file_path, rel, select=select, report_unused=report_unused)
        )
    return violations
