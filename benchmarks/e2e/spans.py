"""In-memory span recorder owned by the benchmark.

Spans are placed *around* calls into each layer's public functions —
explicit ``with rec.span(...)`` blocks in the benchmark's own files and
instance-level wrappers on engine methods (``rec.wrap``) — never inside
``src/``.  Instance-level wrapping keeps ``type(engine)`` intact, which
the columnar kernels' eligibility checks test.

A span is ``[name, start, end, parent, cell]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``cell`` names the engine cell
the work belongs to, so spans of one cell share an identifier.  A
layer's self time is its span's duration minus the part its child spans
cover, so per cell, children + self equals the cell span by
construction; :meth:`SpanRecorder.self_sum` is the check on that.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator

NAME, START, END, PARENT, CELL = range(5)


class SpanRecorder:
    """Nested spans on ``perf_counter`` plus item counts per boundary."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: (cell, name) -> items handed across the boundary (e.g. keys
        #: in a bulk call), so ratios are measured where the work happens.
        self.items: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[int] = []
        self._cell = ""

    @contextmanager
    def span(self, name: str, cell: str | None = None) -> Iterator[None]:
        """Record one span; ``cell`` (if given) labels it and its children."""
        outer_cell = self._cell
        if cell is not None:
            self._cell = cell
        stack = self._stack
        rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._cell]
        stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = perf_counter()
            stack.pop()
            self._cell = outer_cell

    def wrap(self, obj: object, attr: str, name: str, *, count_items: bool = False) -> None:
        """Shadow ``obj.attr`` with an instance attribute that records a
        span per call (and ``len(args[0])`` items when ``count_items``)."""
        inner = getattr(obj, attr)
        spans, stack, items, clock = self.spans, self._stack, self.items, perf_counter

        # Same bookkeeping as span(), inlined: this runs once per request
        # on the scalar paths, where a context manager would double its cost.
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            cell = self._cell
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, cell]
            stack.append(len(spans))
            spans.append(rec)
            if count_items:
                items[cell, name] += len(args[0])
            try:
                return inner(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()

        setattr(obj, attr, wrapped)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def self_times(self) -> list[float]:
        """Per span: its duration minus what its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def totals(self) -> dict[tuple[str, str], dict[str, float]]:
        """(cell, name) -> calls, total seconds and self seconds."""
        out: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for s, self_s in zip(self.spans, self.self_times()):
            agg = out[s[CELL], s[NAME]]
            agg["calls"] += 1
            agg["total_s"] += s[END] - s[START]
            agg["self_s"] += self_s
        return out

    def self_sum(self, root_name: str) -> float:
        """Sum of self times over the subtree of the (single) root span
        called ``root_name`` — equals that span's duration when every
        span closed and nested properly."""
        roots = [i for i, s in enumerate(self.spans) if s[NAME] == root_name]
        if len(roots) != 1:
            raise ValueError(f"expected one {root_name!r} span, found {len(roots)}")
        inside = [False] * len(self.spans)
        inside[roots[0]] = True
        for i, s in enumerate(self.spans):  # a parent always precedes its children
            if s[PARENT] >= 0 and inside[s[PARENT]]:
                inside[i] = True
        return sum(t for t, keep in zip(self.self_times(), inside) if keep)

    def dump(self, path: Path) -> None:
        """Write the raw span list, column-wise (times in ns from the
        first span) so a million spans stay a few tens of MB."""
        names = sorted({s[NAME] for s in self.spans})
        cells = sorted({s[CELL] for s in self.spans})
        name_id = {n: i for i, n in enumerate(names)}
        cell_id = {c: i for i, c in enumerate(cells)}
        t0 = self.spans[0][START] if self.spans else 0.0
        payload = {
            "columns": ["name", "start_ns", "end_ns", "parent", "cell"],
            "names": names,
            "cells": cells,
            "name": [name_id[s[NAME]] for s in self.spans],
            "start_ns": [int((s[START] - t0) * 1e9) for s in self.spans],
            "end_ns": [int((s[END] - t0) * 1e9) for s in self.spans],
            "parent": [s[PARENT] for s in self.spans],
            "cell": [cell_id[s[CELL]] for s in self.spans],
            "items": {f"{c}|{n}": v for (c, n), v in sorted(self.items.items())},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


class _NullRecorder(SpanRecorder):
    """Tracing off: spans and wrappers cost nothing and record nothing."""

    @contextmanager
    def span(self, name: str, cell: str | None = None) -> Iterator[None]:
        yield

    def wrap(self, obj: object, attr: str, name: str, *, count_items: bool = False) -> None:
        return None


NULL = _NullRecorder()
