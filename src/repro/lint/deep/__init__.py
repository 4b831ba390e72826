"""Whole-program ("deep") analysis layer for reprolint.

``repro lint --deep`` builds a project-wide symbol table and call graph
(:mod:`~repro.lint.deep.symbols`, :mod:`~repro.lint.deep.callgraph`,
assembled by :mod:`~repro.lint.deep.project`) and runs the
interprocedural D101-D105 rules (:mod:`~repro.lint.deep.rules`) on
top of the reachability helpers in :mod:`~repro.lint.deep.dataflow`.
The driver (:mod:`~repro.lint.deep.driver`) merges deep findings with
the shallow per-file pass and renders text/JSON/SARIF.
"""

__all__ = ["DeepResult", "deep_lint"]


def __getattr__(name: str):  # lazy: submodules import this package
    if name in __all__:
        from repro.lint.deep import driver

        return getattr(driver, name)
    raise AttributeError(name)
