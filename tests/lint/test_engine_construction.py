"""Engines and their device are built in one place: ``repro.engines``.

The paper evaluates five engines at fixed Table 4 configurations on one
device shape.  ``make_engine`` states each configuration once (through
the constructors' defaults) and ``geometry`` states the 1 MiB-zone
device once; a second construction site elsewhere in ``src/repro``
would be a second statement of the same choice, free to drift from
the first.  This test parses the package and finds every call that
constructs an engine class (any subclass of ``CacheEngine``) or a
``FlashGeometry``.
"""

import ast
from pathlib import Path

from repro.core.config import NemoConfig
from repro.engines import geometry, make_engine
from repro.experiments.common import nemo_config

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
FACTORY = "engines.py"


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _engine_classes(trees):
    """Names of every class that derives from ``CacheEngine``."""
    bases = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {
                    b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                    for b in node.bases
                }
    engines = {"CacheEngine"}
    grew = True
    while grew:
        new = {name for name, parents in bases.items() if parents & engines}
        grew = not new <= engines
        engines |= new
    return engines - {"CacheEngine"}


def _constructions(tree, names):
    """``(enclosing function, called name)`` of each call to ``names``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append((function, name))
            visit(child, inner)

    visit(tree, None)
    return found


def test_engines_are_found():
    engines = _engine_classes(list(_trees()))
    assert {
        "NemoCache",
        "LogStructuredCache",
        "SetAssociativeCache",
        "FairyWrenCache",
        "KangarooCache",
    } <= engines


def test_engines_and_devices_are_built_only_by_the_factory():
    trees = list(_trees())
    engines = _engine_classes(trees)
    stray = []
    for path, tree in trees:
        for function, name in _constructions(tree, engines | {"FlashGeometry"}):
            if name == "FlashGeometry":
                ok = path == FACTORY and function == "geometry"
            else:
                ok = path == FACTORY and function == "make_engine"
            if not ok:
                stray.append(f"{path}:{function}: {name}(")
    assert not stray, (
        "build engines through make_engine and devices through geometry: "
        + ", ".join(stray)
    )


def test_the_factory_builds_the_evaluated_nemo():
    assert make_engine("nemo", geometry(8)).config == NemoConfig() == nemo_config()
