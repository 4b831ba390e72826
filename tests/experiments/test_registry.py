"""Unit tests for the experiment registry and CLI."""

import operator
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError
from repro.experiments import EXPERIMENTS, get_experiment, registry
from repro.experiments.__main__ import main as cli_main
from repro.harness.parallel import Cell
from repro.experiments.common import geometry, nemo_config, scale_params, twitter_trace


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "fig04",
            "fig05",
            "fig06",
            "fig08",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig15_tail",
            "fig16",
            "fig17",
            "fig18",
            "fig19",
            "table6",
            "appendixA",
        }
        assert set(EXPERIMENTS) == expected

    def test_get_experiment_resolves(self):
        exp = get_experiment("appendixA")
        assert exp.exp_id == "appendixA"
        assert exp.description

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    @pytest.mark.parametrize(
        "call",
        [
            lambda: registry.get_experiment("fig99"),
            lambda: registry.run_experiment("fig99", scale="micro"),
            lambda: registry.run_experiments(["table6", "fig99"], scale="micro"),
        ],
        ids=["get_experiment", "run_experiment", "run_experiments"],
    )
    def test_unknown_id_fails_the_same_way(self, call):
        with pytest.raises(KeyError, match=r"unknown experiment 'fig99'; known: \[.*'fig12'"):
            call()


def _fake_experiments(monkeypatch, cells_by_id):
    """Register fake experiments whose cells are ``cells_by_id[id]``."""
    fakes = {
        exp_id: SimpleNamespace(cells=lambda scale, c=cells: c, assemble=list)
        for exp_id, cells in cells_by_id.items()
    }
    monkeypatch.setattr(registry, "_module", fakes.__getitem__)


class TestCellSharing:
    def test_equal_cells_run_once_and_fan_out(self, monkeypatch):
        ran = []

        def run_serially(cells, jobs):
            ran.extend(cells)
            return [c.run() for c in cells]

        monkeypatch.setattr(registry, "run_cells", run_serially)
        shared = Cell("add", operator.add, (1, 2))
        _fake_experiments(
            monkeypatch,
            {"a": [shared], "b": [Cell("neg", operator.neg, (4,)), Cell("add", operator.add, (1, 2))]},
        )
        assert registry.run_experiments(["a", "b"]) == [[3], [-4, 3]]
        assert [c.cell_id for c in ran] == ["add", "neg"]

    def test_one_id_two_cells_is_an_error(self, monkeypatch):
        _fake_experiments(
            monkeypatch,
            {"a": [Cell("add", operator.add, (1, 2))], "b": [Cell("add", operator.add, (1, 3))]},
        )
        with pytest.raises(ConfigError, match="'add'"):
            registry.run_experiments(["a", "b"])


class TestCommonConfig:
    def test_geometry_zones(self):
        assert geometry(8).num_zones == 8

    def test_scale_params(self):
        geo, n = scale_params("small")
        assert geo.num_zones > 0 and n > 0
        with pytest.raises(ValueError):
            scale_params("huge")

    def test_trace_memoised(self):
        a = twitter_trace(4000)
        b = twitter_trace(4000)
        assert a is b

    def test_nemo_config_overrides(self):
        cfg = nemo_config(cached_index_ratio=0.25)
        assert cfg.cached_index_ratio == 0.25
        assert cfg.flush_threshold == 8


class TestCLI:
    def test_list_mode(self, capsys):
        assert cli_main([]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out

    def test_run_analytic_experiment(self, capsys):
        assert cli_main(["appendixA"]) == 0
        out = capsys.readouterr().out
        assert "Appendix A" in out

    @pytest.mark.parametrize(
        "argv",
        [["fig99"], ["fig99", "-j", "2"], ["table6", "fig99", "-j", "1"], ["table6", "fig99", "-j", "2"]],
    )
    def test_unknown_id_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment 'fig99'" in err and "'fig12'" in err
