"""Reader for the open-source Twitter production cache traces.

The paper replays traces from `twitter/cache-trace
<https://github.com/twitter/cache-trace>`_.  Those multi-GB files cannot
ship with this repository, but users who have them can replay the real
thing: this module parses the published CSV format into
:class:`~repro.workloads.trace.Trace` objects compatible with every
engine and experiment here.

Format (one request per line)::

    timestamp,anonymized key,key size,value size,client id,operation,TTL

Operations map as: ``get``/``gets`` → GET; ``set``/``add``/``replace``/
``cas``/``append``/``prepend`` → SET; ``delete`` → DELETE; ``incr``/
``decr`` → SET (they rewrite the value).  Keys are anonymised strings;
they are hashed to stable 63-bit integers.

The §5.1 scaling protocol is available via ``size_scale`` (the paper
downscales clusters 14/29 by 2×/3×) and the standard mixer utilities.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.hashing import hash64
from repro.workloads.trace import OP_DELETE, OP_GET, OP_SET, Trace

#: Twitter trace operation → our op codes.
_OP_MAP = {
    "get": OP_GET,
    "gets": OP_GET,
    "set": OP_SET,
    "add": OP_SET,
    "replace": OP_SET,
    "cas": OP_SET,
    "append": OP_SET,
    "prepend": OP_SET,
    "incr": OP_SET,
    "decr": OP_SET,
    "delete": OP_DELETE,
}

_KEY_MASK = (1 << 63) - 1


def _key_id(raw_key: str) -> int:
    """Stable 63-bit integer id for an anonymised key string."""
    h = 1469598103934665603  # FNV-1a 64-bit offset basis
    for ch in raw_key.encode():
        h = ((h ^ ch) * 1099511628211) & ((1 << 64) - 1)
    return hash64(h) & _KEY_MASK


def load_twitter_csv(
    source: str | Path | io.TextIOBase,
    *,
    max_requests: int | None = None,
    size_scale: float = 1.0,
    min_object_size: int = 16,
    name: str | None = None,
) -> Trace:
    """Parse a twitter/cache-trace CSV into a :class:`Trace`.

    Parameters
    ----------
    source:
        Path to the CSV (possibly truncated) or an open text stream.
    max_requests:
        Stop after this many parsed requests (traces are huge).
    size_scale:
        §5.1 object-size downscale (2.0 halves object sizes).
    min_object_size:
        Floor applied after scaling.
    name:
        Trace label; defaults to the file name.

    Sizes are per request in the raw file; this reader pins each key to
    the *first* size observed for it, matching the synthetic generators'
    per-key-size invariant that the engines rely upon.
    """
    if size_scale <= 0:
        raise TraceError("size_scale must be positive")
    close = False
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise TraceError(f"no trace file at {path}")
        stream: io.TextIOBase = open(path, "r", newline="")
        close = True
        if name is None:
            name = path.stem
    else:
        stream = source
        if name is None:
            name = "twitter-csv"

    ops: list[int] = []
    keys: list[int] = []
    sizes: list[int] = []
    size_of_key: dict[int, int] = {}
    try:
        reader = csv.reader(stream)
        for lineno, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) < 7:
                raise TraceError(
                    f"line {lineno}: expected 7 fields, got {len(row)}"
                )
            _ts, raw_key, key_size, value_size, _client, op_name, _ttl = row[:7]
            op = _OP_MAP.get(op_name.strip().lower())
            if op is None:
                raise TraceError(f"line {lineno}: unknown operation {op_name!r}")
            # Both size fields are checked on every row, not only on a
            # key's first one, so a malformed repeat row cannot load.
            try:
                k_size, v_size = int(key_size), int(value_size)
            except ValueError as exc:
                raise TraceError(
                    f"line {lineno}: non-numeric size {key_size!r}, {value_size!r}"
                ) from exc
            if k_size < 0 or v_size < 0:
                raise TraceError(
                    f"line {lineno}: negative size {k_size}, {v_size}"
                )
            key = _key_id(raw_key)
            size = size_of_key.get(key)
            if size is None:
                size = max(min_object_size, round((k_size + v_size) / size_scale))
                size_of_key[key] = size
            ops.append(op)
            keys.append(key)
            sizes.append(size)
            if max_requests is not None and len(ops) >= max_requests:
                break
    finally:
        if close:
            stream.close()

    if not ops:
        raise TraceError("trace file contained no requests")
    return Trace(
        ops=np.array(ops, dtype=np.uint8),
        keys=np.array(keys, dtype=np.int64),
        sizes=np.array(sizes, dtype=np.int64),
        name=name,
        meta={"source": "twitter-csv", "size_scale": size_scale},
    )
