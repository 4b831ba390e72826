"""CLI and output-format tests for ``repro lint --deep``.

Pins: the real repo is deep-clean (exit 0), the JSON shape is
snapshot-stable, SARIF carries the fields
GitHub code scanning requires, W001 reports stale suppressions, and
the dead-code report never affects the exit status.
"""

import json
from pathlib import Path

from repro.lint.cli import main
from repro.lint.deep.driver import deep_lint
from repro.lint.engine import lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]


def seed_clean_tree(root: Path) -> Path:
    (root / "pyproject.toml").write_text("[project]\nname = 'fake'\n")
    pkg = root / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "ok.py").write_text("def used():\n    return 1\n\nVALUE = used()\n")
    return root


def seed_violation_tree(root: Path) -> Path:
    seed_clean_tree(root)
    bad = root / "src" / "repro" / "core" / "bad.py"
    bad.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
    return root


class TestDeepOnRepo:
    def test_repo_is_deep_clean_within_budget(self):
        result = deep_lint(REPO_ROOT)
        assert result.violations == []
        assert result.stats["seconds"] < 30

    def test_deep_cli_exits_zero_on_repo(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["--root", str(REPO_ROOT), "--deep", "-q"]) == 0


class TestJsonFormat:
    def test_json_snapshot_shape(self, tmp_path, capsys):
        seed_violation_tree(tmp_path)
        out_file = tmp_path / "report.json"
        assert (
            main(
                [
                    "--root",
                    str(tmp_path),
                    "--format",
                    "json",
                    "--output",
                    str(out_file),
                    "-q",
                ]
            )
            == 1
        )
        payload = json.loads(out_file.read_text())
        assert sorted(payload) == ["summary", "violations"]
        assert payload["summary"] == {"mode": "shallow"}
        assert payload["violations"] == [
            {
                "path": "src/repro/core/bad.py",
                "line": 5,
                "col": 11,
                "code": "R001",
                "message": (
                    "wall-clock read `time.time` in simulated zone "
                    "'core' (use the simulated `now_us` clock)"
                ),
            }
        ]

    def test_deep_json_summary_carries_run_stats(self, tmp_path):
        seed_clean_tree(tmp_path)
        out_file = tmp_path / "report.json"
        assert (
            main(
                [
                    "--root",
                    str(tmp_path),
                    "--deep",
                    "--format",
                    "json",
                    "--output",
                    str(out_file),
                    "-q",
                ]
            )
            == 0
        )
        payload = json.loads(out_file.read_text())
        summary = payload["summary"]
        assert summary["mode"] == "deep"
        assert {"modules_parsed", "seconds"} <= set(summary)


class TestSarifFormat:
    def test_sarif_minimum_for_code_scanning(self, tmp_path):
        seed_violation_tree(tmp_path)
        out_file = tmp_path / "report.sarif"
        assert (
            main(
                [
                    "--root",
                    str(tmp_path),
                    "--deep",
                    "--format",
                    "sarif",
                    "--output",
                    str(out_file),
                    "-q",
                ]
            )
            == 1
        )
        sarif = json.loads(out_file.read_text())
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        # The catalog names every rule the driver can emit.
        assert {"R001", "D101", "D102", "D103", "D104", "D105", "W001"} <= rule_ids
        (result,) = run["results"]
        assert result["ruleId"] == "R001"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/core/bad.py"
        assert location["region"]["startLine"] == 5


class TestUnusedSuppressions:
    def test_stale_disable_reports_w001(self, tmp_path, capsys):
        seed_clean_tree(tmp_path)
        stale = tmp_path / "src" / "repro" / "core" / "stale.py"
        stale.write_text("x = 1  # reprolint: disable=R001\n")
        assert main(["--root", str(tmp_path), "-q"]) == 1
        out = capsys.readouterr().out
        assert "W001" in out and "stale.py" in out

    def test_used_disable_is_not_reported(self):
        source = (
            "import time\n\n\n"
            "def stamp():\n"
            "    return time.time()  # reprolint: disable=R001\n"
        )
        assert lint_source(source, zone="core", report_unused=True) == []

    def test_docstring_mention_is_not_a_suppression_comment(self):
        source = '"""Use `# reprolint: disable=R001` to suppress."""\n'
        assert lint_source(source, zone="core", report_unused=True) == []

    def test_unused_codes_only_judged_when_their_rule_ran(self):
        # D101 is a whole-program rule the per-file pass never runs, so
        # its suppression is not judged (and not flagged).
        source = "x = 1  # reprolint: disable=D101\n"
        assert lint_source(source, zone="core", report_unused=True) == []


class TestDeadCodeReport:
    def test_dead_code_never_affects_exit_status(self, tmp_path, capsys):
        seed_clean_tree(tmp_path)
        dead = tmp_path / "src" / "repro" / "core" / "orphan.py"
        dead.write_text("def never_called():\n    return 1\n")
        assert (
            main(["--root", str(tmp_path), "--deep", "--dead-code"])
            == 0
        )
        out = capsys.readouterr().out
        assert "W002" in out and "never_called" in out

    def test_name_referenced_symbols_stay_live(self, tmp_path, capsys):
        seed_clean_tree(tmp_path)
        cb = tmp_path / "src" / "repro" / "core" / "cb.py"
        cb.write_text(
            "def callback():\n"
            "    return 1\n\n\n"
            "HANDLERS = {'cb': callback}\n"
        )
        assert (
            main(["--root", str(tmp_path), "--deep", "--dead-code"])
            == 0
        )
        assert "callback" not in capsys.readouterr().out
