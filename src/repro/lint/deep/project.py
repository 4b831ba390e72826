"""Project assembly: parse every scanned file into one :class:`Project`.

Receiver inference depends on the project-wide set of class names
(``engine = NemoCache(...)`` in a file that imports it), so the files
are parsed first, the names collected from the trees, and only then is
each tree turned into its symbol table.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.lint.deep.callgraph import Project, build_project
from repro.lint.deep.symbols import extract_module
from repro.lint.engine import classify_zone, iter_python_files

#: The deep layer analyses the shipped package plus the examples; test
#: and benchmark files feed the dead-code roots but are not themselves
#: rule targets, so the symbol table covers everything reachable.
DEEP_SCAN_ROOTS = ("src/repro", "benchmarks", "tests", "examples")


def load_project(
    root: Path, *, scan_roots: tuple[str, ...] = DEEP_SCAN_ROOTS
) -> Project:
    """Symbol tables of every file under ``scan_roots`` -> :class:`Project`.

    Files that cannot be read or parsed are skipped here; the shallow
    pass already reports E999 for them.
    """
    parsed: dict[str, tuple[str, ast.Module]] = {}
    for file_path in iter_python_files(root, scan_roots):
        rel = file_path.relative_to(root).as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
            parsed[rel] = (source, ast.parse(source, filename=rel))
        except (OSError, SyntaxError):
            continue

    class_names = {
        node.name
        for _source, tree in parsed.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    modules = {
        rel: extract_module(
            rel,
            source,
            zone=classify_zone(rel),
            project_class_names=class_names,
            tree=tree,
        )
        for rel, (source, tree) in sorted(parsed.items())
    }
    return build_project(str(root), modules)
