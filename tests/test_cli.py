"""Smoke tests for the ``python -m repro`` CLI."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "TDP" in out
        assert "phases" in out  # registered executables listed
        assert "rt.frontend" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3A" in out and "Figure 3B" in out
        assert "tdp_attach" in out

    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        out = capsys.readouterr().out
        assert "completed" in out and "tool observed" in out

    def test_consultant(self, capsys):
        assert main(["consultant"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck(s): compute_b" in out

    def test_protocol_check(self, capsys):
        assert main(["protocol", "check"]) == 0
        out = capsys.readouterr().out
        assert "matches the source tree" in out
        assert "13 ops" in out

    def test_protocol_dump_to_path(self, tmp_path, capsys):
        target = tmp_path / "lock.json"
        assert main(["protocol", "dump", "--lock", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["protocol", "check", "--lock", str(target)]) == 0
        capsys.readouterr()

    def test_protocol_check_missing_lock(self, tmp_path, capsys):
        assert main(["protocol", "check",
                     "--lock", str(tmp_path / "nope.json")]) == 1
        assert "missing lock file" in capsys.readouterr().err

    def test_protocol_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["protocol"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
