"""Tests for the ``python -m repro`` replay CLI."""

import pytest

from repro.cli import build_engine, main, make_parser
from repro.flash.geometry import FlashGeometry


class TestParser:
    def test_defaults(self):
        args = make_parser().parse_args([])
        assert args.engine == "nemo"
        assert args.requests == 200_000

    def test_engine_choices(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["--engine", "bogus"])


class TestBuildEngine:
    @pytest.mark.parametrize("name", ["nemo", "log", "set", "fw", "kg"])
    def test_all_engines_constructible(self, name):
        geometry = FlashGeometry(
            page_size=4096, pages_per_block=64, num_blocks=32, blocks_per_zone=4
        )
        args = make_parser().parse_args([])
        engine = build_engine(name, geometry, args)
        assert engine.object_count() == 0

    def test_unknown_engine(self):
        geometry = FlashGeometry()
        args = make_parser().parse_args([])
        with pytest.raises(ValueError):
            build_engine("bogus", geometry, args)


class TestProfile:
    def test_profile_subcommand(self, capsys):
        rc = main(["profile", "table6", "--scale", "micro", "--lines", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cumulative" in out
        assert "function calls" in out

    def test_profile_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["profile", "bogus"])


class TestEndToEnd:
    def test_synthetic_replay(self, capsys):
        rc = main(
            ["--engine", "log", "--requests", "5000", "--zones", "4",
             "--wss-scale", "0.0001"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "WA" in out and "Log" in out

    def test_csv_replay(self, tmp_path, capsys):
        csv = tmp_path / "trace.csv"
        csv.write_text("0,k1,20,200,1,get,0\n1,k1,20,200,1,get,0\n" * 100)
        rc = main(["--engine", "log", "--requests", "150", "--zones", "4",
                   "--trace-csv", str(csv)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "trace" in out


class TestReplaySubcommand:
    def test_columnar_kernel_lane(self, capsys):
        rc = main(
            ["replay", "--engine", "log", "--kernel", "columnar",
             "--requests", "5000", "--zones", "4", "--wss-scale", "0.0001"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "columnar" in out and "Log" in out

    def test_shards_flag_is_rejected(self, capsys):
        """``repro replay`` has no shard flag (shards exist only in
        ``CacheCluster``): passing one is a usage error, not silently
        ignored."""
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--engine", "log", "--shards", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err

    def test_kernel_choices(self):
        with pytest.raises(SystemExit):
            main(["replay", "--kernel", "bogus"])


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


class TestLatencyLaneFlag:
    _common = ["replay", "--engine", "log", "--requests", "5000",
               "--zones", "4", "--wss-scale", "0.0001"]

    @pytest.mark.parametrize("lane", ["analytic", "event"])
    def test_lane_prints_percentiles(self, lane, capsys):
        rc = main(self._common + ["--latency-lane", lane])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"latency[{lane}] Log:" in out
        assert "p50=" in out and "p99=" in out and "p99.99=" in out

    def test_lane_demotes_columnar_kernel_with_warning(self, capsys):
        rc = main(
            self._common + ["--kernel", "columnar", "--latency-lane", "event"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # A timed replay cannot use the whole-trace kernel; the harness
        # demotes to the batched loop and the CLI surfaces the note.
        assert "warning:" in out
        assert "latency models need per-request timing" in out
        assert "latency[event] Log:" in out

    def test_lane_choices(self):
        with pytest.raises(SystemExit):
            main(["replay", "--latency-lane", "bogus"])
