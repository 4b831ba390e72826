"""CLI tests: ``repro cluster`` and the ``repro replay`` kernel fallback."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestClusterCLI:
    def test_sweep_end_to_end(self, capsys):
        rc = main(
            [
                "cluster", "--engine", "log", "--shards", "1", "2",
                "--requests", "6000", "--tenants", "2",
                "--keys-per-tenant", "600", "--quota-mib", "1",
                "--jobs", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "shards" in out and "capacity req/s" in out
        assert "per-tenant isolation at 2 shard(s)" in out
        # Both tenants appear with interference deltas (solo refs ran).
        assert "t1" in out and "t2" in out
        assert "d-miss" in out

    def test_no_solo_skips_interference(self, capsys):
        rc = main(
            [
                "cluster", "--engine", "log", "--shards", "2",
                "--requests", "4000", "--tenants", "2",
                "--keys-per-tenant", "500", "--no-solo", "--jobs", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "nan" in out  # interference columns are empty markers

    def test_rejects_bad_tenant_count(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--tenants", "0"])

    def test_rejects_bad_shard_count(self):
        with pytest.raises(SystemExit):
            main(["cluster", "--shards", "0"])


class TestReplayShardGuard:
    """``repro replay`` never fails over a kernel it cannot engage: the
    harness demotes and the CLI prints why."""

    def test_serial_fallback_prints_warning(self, capsys):
        """An engine with no registered kernel falls back to batched
        dispatch with a warning, not an error."""
        rc = main(
            [
                "replay", "--engine", "set", "--kernel", "columnar",
                "--requests", "3000",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "warning: Set: columnar kernel unavailable" in out
        assert "falling back to batched dispatch" in out
