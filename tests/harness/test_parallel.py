"""Tests for the process-level experiment fan-out.

The parity tests compare ``jobs=1`` against ``jobs=2`` on the *same*
cells; determinism is a hard requirement (DESIGN.md §5), so the results
must be identical — not approximately equal.

Cell functions must be spawn-picklable, so tests use either functions
from the :mod:`operator` module or real experiment cells (whose
functions live at module level under ``repro.*``).
"""

from __future__ import annotations

import multiprocessing
import operator
import os

import pytest

from repro.errors import PoolFallbackWarning
from repro.experiments import fig12_wa_main
from repro.harness.parallel import Cell, CellFailure, default_jobs, run_cells


def _triple_unless_worker(x: int) -> int:
    """Kills any spawn worker that runs it; fine in the parent."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return 3 * x


class TestRunCells:
    def test_results_in_cell_order(self):
        cells = [
            Cell(f"add/{i}", operator.add, (i, 100)) for i in range(6)
        ]
        assert run_cells(cells, jobs=1) == [100 + i for i in range(6)]

    def test_parallel_matches_serial(self):
        cells = [Cell(f"mul/{i}", operator.mul, (i, 7)) for i in range(8)]
        assert run_cells(cells, jobs=2) == run_cells(cells, jobs=1)

    def test_empty_and_single(self):
        assert run_cells([], jobs=4) == []
        assert run_cells([Cell("one", operator.neg, (5,))], jobs=4) == [-5]

    def test_jobs_none_uses_default(self):
        cells = [Cell("neg", operator.neg, (3,))]
        assert run_cells(cells, jobs=None) == [-3]
        assert default_jobs() >= 1

    def test_kwargs_passed_through(self):
        cells = [Cell("int", int, ("ff",), {"base": 16})]
        assert run_cells(cells, jobs=1) == [255]


class TestFailurePropagation:
    def test_serial_failure_names_cell(self):
        cells = [
            Cell("ok", operator.add, (1, 1)),
            Cell("boom/div0", operator.floordiv, (1, 0)),
        ]
        with pytest.raises(CellFailure, match="boom/div0"):
            run_cells(cells, jobs=1)

    def test_parallel_failure_names_cell(self):
        cells = [
            Cell("ok/0", operator.add, (1, 1)),
            Cell("boom/div0", operator.floordiv, (1, 0)),
            Cell("ok/1", operator.add, (2, 2)),
        ]
        with pytest.raises(CellFailure) as excinfo:
            run_cells(cells, jobs=2)
        assert excinfo.value.cell_id == "boom/div0"
        assert "ZeroDivisionError" in str(excinfo.value)

    def test_unpicklable_falls_back_to_serial(self):
        # A lambda cannot be pickled for spawn workers; run_cells must
        # degrade to in-process execution rather than fail.
        cells = [Cell(f"lambda/{i}", lambda i=i: i * 2) for i in range(3)]
        assert run_cells(cells, jobs=2) == [0, 2, 4]

    def test_dead_worker_is_recorded_and_rerun_serially(self):
        cells = [Cell(f"triple/{i}", _triple_unless_worker, (i,)) for i in range(4)]
        with pytest.warns(PoolFallbackWarning, match="BrokenProcessPool") as record:
            assert run_cells(cells, jobs=2) == [0, 3, 6, 9]
        assert len(record) == 1


class TestExperimentCellParity:
    def test_fig12_cells_identical_across_jobs(self):
        cells = fig12_wa_main.cells("micro")
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=2)
        assert parallel == serial
        # And the assembled figure is the same object graph either way.
        from_parallel = fig12_wa_main.assemble(parallel)
        from_serial = fig12_wa_main.assemble(serial)
        assert from_parallel.main_rows == from_serial.main_rows
        assert from_parallel.variant_rows == from_serial.variant_rows
