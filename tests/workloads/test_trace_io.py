"""Unit tests for trace persistence."""

import zipfile

import numpy as np
import pytest

from repro.errors import TraceError
from repro.workloads.trace import OP_GET, Trace
from repro.workloads.trace_io import load_trace, save_trace


@pytest.fixture
def trace():
    return Trace(
        ops=np.full(5, OP_GET, dtype=np.uint8),
        keys=np.arange(5),
        sizes=np.full(5, 123),
        name="roundtrip",
        meta={"zipf_alpha": 1.2},
    )


class TestRoundtrip:
    def test_roundtrip_preserves_arrays(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "t.npz")
        loaded = load_trace(path)
        assert np.array_equal(loaded.ops, trace.ops)
        assert np.array_equal(loaded.keys, trace.keys)
        assert np.array_equal(loaded.sizes, trace.sizes)

    def test_roundtrip_preserves_metadata(self, trace, tmp_path):
        loaded = load_trace(save_trace(trace, tmp_path / "t.npz"))
        assert loaded.name == "roundtrip"
        assert loaded.meta["zipf_alpha"] == 1.2
        assert loaded.num_keys == trace.num_keys

    def test_suffix_appended(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "noext")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_creates_parent_dirs(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "a" / "b" / "t.npz")
        assert path.exists()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "absent.npz")


class TestCorruptArchive:
    """A file that is not a saved trace fails with a typed error naming
    the path and the cause, never with the I/O layer's own exception."""

    @pytest.fixture
    def saved(self, trace, tmp_path):
        return save_trace(trace, tmp_path / "t.npz")

    @staticmethod
    def _write_archive(path, trace, **members):
        np.savez_compressed(
            path, ops=trace.ops, keys=trace.keys, sizes=trace.sizes, **members
        )

    def _assert_corrupt(self, path, cause):
        with pytest.raises(TraceError, match="corrupt trace") as excinfo:
            load_trace(path)
        assert str(path) in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, cause)

    def test_truncated_archive(self, saved):
        raw = saved.read_bytes()
        saved.write_bytes(raw[: len(raw) // 2])
        self._assert_corrupt(saved, zipfile.BadZipFile)

    def test_empty_file(self, saved):
        saved.write_bytes(b"")
        self._assert_corrupt(saved, EOFError)

    def test_missing_member(self, trace, tmp_path):
        path = tmp_path / "nometa.npz"
        self._write_archive(path, trace)
        self._assert_corrupt(path, KeyError)

    @pytest.mark.parametrize("meta", [b"{not json", b"\xff\xfe"])
    def test_undecodable_meta(self, trace, tmp_path, meta):
        path = tmp_path / "badmeta.npz"
        self._write_archive(path, trace, meta=np.frombuffer(meta, dtype=np.uint8))
        self._assert_corrupt(path, ValueError)

    def test_meta_not_an_object(self, trace, tmp_path):
        path = tmp_path / "listmeta.npz"
        self._write_archive(path, trace, meta=np.frombuffer(b"[1, 2]", dtype=np.uint8))
        with pytest.raises(TraceError, match="meta is not a JSON object"):
            load_trace(path)

    def test_bare_array_file(self, trace, tmp_path):
        """``np.save`` output under an ``.npz`` name loads as an array,
        not an archive."""
        path = tmp_path / "arr.npz"
        with open(path, "wb") as handle:
            np.save(handle, trace.keys)
        with pytest.raises(TraceError, match="not an npz archive") as excinfo:
            load_trace(path)
        assert str(path) in str(excinfo.value)
