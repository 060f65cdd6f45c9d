"""Tests for the ``python -m repro lint`` command-line front end."""

from repro.analysis.cli import main


def write_fixture(tmp_path, name, code):
    path = tmp_path / name
    path.write_text(code, encoding="utf-8")
    return path


CLEAN = "def f():\n    return 1\n"
DIRTY = "import threading\nt = threading.Thread(target=print)\n"


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_fixture(tmp_path, "ok.py", CLEAN)
        assert main([str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write_fixture(tmp_path, "bad.py", DIRTY)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bare-thread" in out
        assert "1 finding(s)" in out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        write_fixture(tmp_path, "ok.py", CLEAN)
        assert main([str(tmp_path), "--rules", "no-such-rule"]) == 2
        assert "no-such-rule" in capsys.readouterr().err

    def test_syntax_error_reported_as_finding(self, tmp_path, capsys):
        write_fixture(tmp_path, "broken.py", "def f(:\n")
        assert main([str(tmp_path)]) == 1
        assert "parse-error" in capsys.readouterr().out

    def test_nonexistent_path_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "no-such-dir"
        assert main([str(missing)]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_repro_main_routes_lint_options(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(["lint", "--list-rules"]) == 0
        assert "bare-thread" in capsys.readouterr().out


class TestRuleSelection:
    def test_rules_filter_restricts_battery(self, tmp_path, capsys):
        write_fixture(tmp_path, "bad.py", DIRTY)
        assert main([str(tmp_path), "--rules", "wall-clock-in-sim"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "callback-under-lock",
            "blocking-call-under-lock",
            "wall-clock-in-sim",
            "raw-attribute-literal",
            "missing-handle-check",
            "bare-thread",
            "undeclared-lock-edge",
            "protocol-exhaustiveness",
        ):
            assert name in out

    def test_program_rule_selectable_by_name(self, tmp_path, capsys):
        write_fixture(tmp_path, "ok.py", CLEAN)
        assert main([str(tmp_path), "--rules", "undeclared-lock-edge"]) == 0
        capsys.readouterr()
