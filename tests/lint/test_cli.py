"""End-to-end tests for the ``repro lint`` / ``tools/reprolint`` front end.

The pinned contract: the real repo tree lints clean (exit 0), a seeded
violation tree exits 1, usage errors exit 2, syntax errors surface as
E999 diagnostics instead of crashing the run, and stale suppressions
are reported as W001.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import find_repo_root, main
from repro.lint.engine import lint_file, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]


def seed_fixture_tree(root: Path) -> Path:
    """Lay out a minimal fake repo with one R001 violation in core."""
    (root / "pyproject.toml").write_text("[project]\nname = 'fake'\n")
    bad = root / "src" / "repro" / "core"
    bad.mkdir(parents=True)
    (bad / "bad.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n"
    )
    return root


class TestMain:
    def test_repo_tree_is_clean(self, capsys):
        assert main(["--root", str(REPO_ROOT)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_seeded_violation_exits_one(self, tmp_path, capsys):
        seed_fixture_tree(tmp_path)
        assert main(["--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        assert "bad.py" in out

    def test_select_runs_only_requested_rules(self, tmp_path):
        seed_fixture_tree(tmp_path)
        # The only seeded violation is R001; selecting R002 alone is clean.
        assert main(["--root", str(tmp_path), "--select", "R002"]) == 0
        assert main(["--root", str(tmp_path), "--select", "R001"]) == 1

    def test_unknown_select_is_usage_error(self, tmp_path, capsys):
        seed_fixture_tree(tmp_path)
        assert main(["--root", str(tmp_path), "--select", "R999"]) == 2
        assert "R999" in capsys.readouterr().err

    def test_list_rules_names_all_codes(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines() if line[:1].strip()]
        assert listed == ["R001", "R002", "R003", "R005", "R006", "W001"]

    @pytest.mark.parametrize("flag", [["--deep"], ["--format", "json"]])
    def test_retired_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_explicit_paths_restrict_the_scan(self, tmp_path):
        seed_fixture_tree(tmp_path)
        clean = tmp_path / "tests"
        clean.mkdir()
        (clean / "test_ok.py").write_text("def test_ok():\n    assert True\n")
        assert main(["--root", str(tmp_path), "tests"]) == 0
        assert main(["--root", str(tmp_path), "src"]) == 1

    def test_find_repo_root_walks_up(self, tmp_path):
        seed_fixture_tree(tmp_path)
        nested = tmp_path / "src" / "repro" / "core"
        assert find_repo_root(nested) == tmp_path


class TestSyntaxErrors:
    def test_syntax_error_reports_e999(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        found = lint_file(broken, "src/repro/core/broken.py")
        assert [v.code for v in found] == ["E999"]
        rendered = found[0].render()
        assert "broken.py" in rendered and "E999" in rendered

    def test_syntax_error_does_not_abort_tree_scan(self, tmp_path):
        seed_fixture_tree(tmp_path)
        (tmp_path / "src" / "repro" / "core" / "broken.py").write_text(
            "def oops(:\n"
        )
        found = lint_paths(tmp_path)
        assert {v.code for v in found} == {"R001", "E999"}


class TestUnusedSuppressions:
    def test_stale_disable_reports_w001(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fake'\n")
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        (core / "stale.py").write_text("x = 1  # reprolint: disable=R001\n")
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
        # R003 does not apply in the harness zone, so its suppression
        # there is not judged (and not flagged).
        source = "x = 1  # reprolint: disable=R003\n"
        assert lint_source(source, zone="harness", report_unused=True) == []


class TestToolsShim:
    def test_reprolint_script_exists_and_is_executable(self):
        shim = REPO_ROOT / "tools" / "reprolint"
        assert shim.is_file()
        assert os.access(shim, os.X_OK)

    def test_subprocess_smoke(self):
        """``python -m repro lint`` exits 0 on the repo — the same
        invocation the CI lint job runs."""
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "-q"],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
