"""Trace persistence: save/load traces as ``.npz`` archives.

Long experiments reuse one generated trace across engines so every system
replays *identical* requests (the paper replays the same merged trace
against all five engines).  Persisting the arrays also lets the
benchmark harness amortise generation across processes.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.workloads.trace import Trace


def save_trace(trace: Trace, path: str | Path) -> Path:
    """Write ``trace`` to ``path`` (``.npz`` appended if missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        ops=trace.ops,
        keys=trace.keys,
        sizes=trace.sizes,
        meta=np.frombuffer(
            json.dumps(
                {"name": trace.name, "num_keys": trace.num_keys, **trace.meta}
            ).encode(),
            dtype=np.uint8,
        ),
    )
    return path


def load_trace(path: str | Path) -> Trace:
    """Load a trace previously written by :func:`save_trace`.

    A file that is not such an archive raises :class:`TraceError`
    naming the path and the cause.
    """
    # np.load imports zipfile on first use; at module level it would
    # add its ~15 ms to every ``import repro``.
    import zipfile

    path = Path(path)
    if not path.exists():
        raise TraceError(f"no trace at {path}")
    try:
        data = np.load(path)
        # A bare ``.npy`` file loads as an ndarray, which has no members
        # and is no context manager.
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("not an npz archive")
        with data:
            ops, keys, sizes = data["ops"], data["keys"], data["sizes"]
            meta = json.loads(bytes(data["meta"]).decode())
    except (
        # What np.load and the member reads raise on a truncated, empty,
        # bit-flipped or member-less file, and bad meta JSON.
        OSError,
        EOFError,
        KeyError,
        ValueError,
        zipfile.BadZipFile,
        zlib.error,
    ) as exc:
        raise TraceError(
            f"corrupt trace at {path}: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(meta, dict):
        raise TraceError(f"corrupt trace at {path}: meta is not a JSON object")
    return Trace(
        ops=ops,
        keys=keys,
        sizes=sizes,
        name=meta.pop("name", "trace"),
        num_keys=meta.pop("num_keys", 0),
        meta=meta,
    )
