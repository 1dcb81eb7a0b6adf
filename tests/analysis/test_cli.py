"""``repro check`` CLI: exit codes 0/1/2 and stdout/stderr separation."""

import json

import pytest

from repro.cli import main

CLEAN = "def add(a, b):\n    return a + b\n"
DIRTY = "import pickle\n\n\ndef load(s):\n    return eval(s)\n"


@pytest.fixture
def tree(tmp_path):
    """A scan root and a baseline path, both under tmp."""
    root = tmp_path / "pkg"
    root.mkdir()
    baseline = tmp_path / "baseline.json"

    def write(source):
        (root / "mod.py").write_text(source)
        return ["check", "--path", str(root), "--baseline", str(baseline)]

    return write


class TestExitCodes:
    def test_clean_tree_exits_0(self, tree):
        assert main(tree(CLEAN)) == 0

    def test_new_findings_exit_1(self, tree):
        with pytest.raises(SystemExit) as excinfo:
            main(tree(DIRTY))
        assert excinfo.value.code == 1

    def test_unknown_rule_exits_2(self, tree):
        with pytest.raises(SystemExit) as excinfo:
            main(tree(CLEAN) + ["--rules", "no-such-rule"])
        assert excinfo.value.code == 2

    def test_missing_root_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--path", str(tmp_path / "nowhere")])
        assert excinfo.value.code == 2

    def test_malformed_baseline_exits_2(self, tree, tmp_path):
        (tmp_path / "baseline.json").write_text("{broken")
        with pytest.raises(SystemExit) as excinfo:
            main(tree(CLEAN))
        assert excinfo.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--frobnicate"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_baselined_findings_exit_0(self, tree):
        args = tree(DIRTY)
        main(args + ["--update-baseline"])
        assert main(args) == 0

    def test_strict_fails_on_stale_entries(self, tree):
        args = tree(DIRTY)
        main(args + ["--update-baseline"])
        args = tree(CLEAN)                 # violations fixed -> stale
        assert main(args) == 0             # lax: stale is informational
        with pytest.raises(SystemExit) as excinfo:
            main(args + ["--strict"])
        assert excinfo.value.code == 1

    def test_update_baseline_after_fix_expires_entries(self, tree):
        args = tree(DIRTY)
        main(args + ["--update-baseline"])
        args = tree(CLEAN)
        main(args + ["--update-baseline"])
        assert main(args + ["--strict"]) == 0


class TestOutput:
    def test_json_stdout_is_pure_json(self, tree, capsys):
        with pytest.raises(SystemExit):
            main(tree(DIRTY) + ["--json"])
        out, err = capsys.readouterr()
        report = json.loads(out)           # would raise on stray notes
        assert report["ok"] is False
        assert {f["rule_id"] for f in report["new"]} \
            == {"HYG001", "HYG002"}
        assert report["baselined"] == [] and report["stale"] == []

    def test_text_mode_notes_go_to_stderr(self, tree, capsys):
        main(tree(CLEAN))
        out, err = capsys.readouterr()
        assert out == ""
        assert "0 new" in err

    def test_text_mode_findings_go_to_stdout_with_hints(self, tree, capsys):
        with pytest.raises(SystemExit):
            main(tree(DIRTY))
        out, err = capsys.readouterr()
        assert "HYG001" in out and "pickle" in out
        assert "hint:" in out

    def test_list_rules_names_all_builtins(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out, _ = capsys.readouterr()
        for name in ("lock-discipline", "digest-schema", "wire-protocol",
                     "obs-naming", "hygiene"):
            assert name in out
