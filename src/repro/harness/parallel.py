"""Process-level experiment fan-out.

Every experiment cell — one (engine config, trace, seed) replay — is a
pure function of its inputs: the simulators are deterministic and share
no state across cells.  That makes the experiment sweeps embarrassingly
parallel, which is exactly the structural independence the paper leans
on when it argues Nemo's extra reads are "parallelisable" (§5.5).

This module is the generic cell pool (:class:`Cell` /
:func:`run_cells`) that experiments and the cluster's shard replays fan
out over.  Design constraints honoured here:

- **Spawn-safe**: cells carry only top-level callables and picklable
  arguments, so the pool works under the ``spawn`` start method (the
  only one that is fork-safety-proof with numpy/BLAS threads around).
- **Trace sharing**: workers do not receive multi-MB numpy traces over
  the pipe.  Cells take small descriptors (scale names, request counts)
  and regenerate the trace in-worker through the memoised
  :func:`repro.experiments.common.twitter_trace`, so each worker pays
  the generation cost once no matter how many cells it runs.
- **Determinism**: results are collected in cell order and every cell
  seeds its own generators, so ``jobs=N`` output is byte-identical to
  ``jobs=1`` output.
- **Graceful degradation**: ``jobs=1`` (or a dead/unavailable pool)
  falls back to plain in-process execution with identical results; a
  pool that had to be abandoned says so with a
  :class:`~repro.errors.PoolFallbackWarning`.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import PoolFallbackWarning, ReproError


class CellFailure(ReproError):
    """A cell's function raised; carries the cell id for diagnosis."""

    def __init__(self, cell_id: str, cause: BaseException) -> None:
        super().__init__(f"experiment cell {cell_id!r} failed: {cause!r}")
        self.cell_id = cell_id


@dataclass(frozen=True)
class Cell:
    """One unit of parallel work: ``fn(*args, **kwargs)``.

    ``fn`` must be a module-level (spawn-picklable) callable and the
    arguments must be picklable and *small* — pass trace descriptors,
    not traces.
    """

    cell_id: str
    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def default_jobs() -> int:
    """Default worker count: all *usable* cores but one, at least 1.

    Prefers ``os.process_cpu_count()`` (Python >= 3.13) because it
    respects CPU affinity masks — a container pinned to 4 of 64 cores
    should not spawn 63 workers.  Older interpreters fall back to
    ``os.cpu_count()``.  Both fan-out layers (``run_cells`` and, through
    it, the cluster replay) resolve ``jobs=None`` through this one
    function, so the policy is applied consistently.
    """
    count_fn = getattr(os, "process_cpu_count", None) or os.cpu_count
    return max(1, (count_fn() or 2) - 1)


def _run_cell(
    fn: Callable[..., Any], args: tuple[Any, ...], kwargs: dict[str, Any]
) -> Any:
    # Module-level trampoline so the pool pickles a stable reference.
    return fn(*args, **kwargs)


def _run_serial(cells: list[Cell]) -> list[Any]:
    results: list[Any] = []
    for cell in cells:
        try:
            results.append(cell.run())
        except Exception as exc:
            raise CellFailure(cell.cell_id, exc) from exc
    return results


def _serial_fallback(cells: list[Cell], cause: BaseException) -> list[Any]:
    warnings.warn(
        f"worker pool unusable ({cause!r}); re-running {len(cells)} cells serially",
        PoolFallbackWarning,
        stacklevel=3,
    )
    return _run_serial(cells)


def run_cells(cells: list[Cell], jobs: int | None = None) -> list[Any]:
    """Run ``cells`` and return their results in cell order.

    ``jobs=None`` uses :func:`default_jobs`; ``jobs<=1`` (or a single
    cell) runs serially in-process.  A worker exception surfaces as
    :class:`CellFailure` naming the cell; a *pool* failure (worker
    killed, pickling breakage, fork not available) falls back to a
    serial re-run — cells are pure, so re-running is safe — and emits
    one :class:`~repro.errors.PoolFallbackWarning` naming the cause.
    """
    cells = list(cells)
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(cells) <= 1:
        return _run_serial(cells)

    # Pre-flight: an unpicklable cell would otherwise surface as an
    # opaque error *inside* the pool.  Spawn workers need the payload
    # over a pipe, so probe it up front and degrade to serial instead.
    try:
        for cell in cells:
            pickle.dumps((cell.fn, cell.args, cell.kwargs))
    # Audited worker-boundary degrade: pickling probes raise anything
    # (PicklingError, TypeError, RecursionError, ...) and the contract
    # here is "cannot ship to workers => run serially, same answer".
    except Exception as exc:  # reprolint: disable=R006
        return _serial_fallback(cells, exc)

    try:
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(cells)), mp_context=ctx
        ) as pool:
            futures: list[Future[Any]] = [
                pool.submit(_run_cell, c.fn, c.args, c.kwargs) for c in cells
            ]
            results: list[Any] = []
            for cell, fut in zip(cells, futures):
                try:
                    results.append(fut.result())
                except (BrokenProcessPool, OSError):
                    raise  # pool-level: handled by the fallback below
                except Exception as exc:
                    raise CellFailure(cell.cell_id, exc) from exc
            return results
    except CellFailure:
        raise
    # Audited worker-boundary degrade: the pool itself died (worker
    # OOM-killed, spawn unavailable, unpicklable payload...).  Cells are
    # pure, so the serial re-run is slower but byte-identical.
    except Exception as exc:  # reprolint: disable=R006
        return _serial_fallback(cells, exc)
