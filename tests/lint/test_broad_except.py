"""No silent broad excepts in ``src/repro``, ``benchmarks`` or ``tests``.

A bare ``except:`` or ``except Exception:`` (or ``BaseException``) that
neither re-raises, logs nor prints swallows the failures the
determinism contract needs surfaced: a worker dying, an accounting
invariant tripping.  This is the one contract the determinism
differential (``tests/integration/test_determinism.py``) cannot see —
a swallowed error moves no number until the day it fires.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SCAN_ROOTS = ("src/repro", "benchmarks", "tests")
BROAD = {"Exception", "BaseException"}
LOGGING_ATTRS = {"debug", "info", "warning", "warn", "error", "exception", "critical", "log"}

#: Audited degrade points, ``(file, enclosing function) -> handlers``:
#: the parallel harness's pool boundary re-runs its pure cells serially
#: (same answer) and warns with ``PoolFallbackWarning``.
AUDITED = Counter({("src/repro/harness/parallel.py", "run_cells"): 2})


def _is_broad(node):
    if node is None:
        return True
    if isinstance(node, ast.Tuple):
        return any(_is_broad(elt) for elt in node.elts)
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in BROAD


def _is_silent(handler):
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return False
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                return False
            if isinstance(func, ast.Attribute) and func.attr in LOGGING_ATTRS:
                return False
    return True


def silent_broad_handlers(node, func="<module>"):
    """Yield ``(enclosing function, line)`` of each silent broad handler."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from silent_broad_handlers(child, child.name)
            continue
        if isinstance(child, ast.ExceptHandler) and _is_broad(child.type) and _is_silent(child):
            yield func, child.lineno
        yield from silent_broad_handlers(child, func)


def test_only_audited_handlers_are_silent_and_broad():
    found = Counter()
    sites = []
    for root in SCAN_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            rel = path.relative_to(REPO_ROOT).as_posix()
            for func, line in silent_broad_handlers(ast.parse(path.read_text(encoding="utf-8"))):
                found[rel, func] += 1
                sites.append(f"{rel}:{line} in {func}()")
    assert found == AUDITED, "silent broad excepts:\n" + "\n".join(sites)


@pytest.mark.parametrize(
    "clause, body, silent",
    [
        pytest.param("except:", "pass", True, id="bare"),
        pytest.param("except Exception:", "pass", True, id="broad"),
        pytest.param("except (ValueError, builtins.BaseException):", "x = 1", True, id="tuple"),
        pytest.param("except ValueError:", "pass", False, id="narrow"),
        pytest.param("except Exception:", "raise", False, id="reraises"),
        pytest.param("except Exception as exc:", "log.warning(exc)", False, id="logs"),
        pytest.param("except Exception:", "print('skipped')", False, id="prints"),
    ],
)
def test_detector(clause, body, silent):
    tree = ast.parse(f"def f():\n    try:\n        g()\n    {clause}\n        {body}\n")
    assert list(silent_broad_handlers(tree)) == ([("f", 4)] if silent else [])
