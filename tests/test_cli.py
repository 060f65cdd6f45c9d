"""Smoke tests for the ``python -m repro`` CLI."""

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.core import load_lock, render_lock

REPO_ROOT = Path(__file__).resolve().parents[1]


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
        assert main(["manifests", "check"]) == 0
        out = capsys.readouterr().out
        assert "protocol.lock.json matches the source tree (12 ops)" in out
        assert "guards.lock.json matches the source tree" in out

    def test_protocol_dump_to_path(self, tmp_path, capsys):
        assert main(["manifests", "dump", "--root", str(tmp_path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert main(["manifests", "check", "--root", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_protocol_check_missing_lock(self, tmp_path, capsys):
        assert main(["manifests", "check", "--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"missing lock file: {tmp_path / 'protocol.lock.json'}" in err
        assert f"missing lock file: {tmp_path / 'guards.lock.json'}" in err

    def test_protocol_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["manifests"])

    def test_manifests_check_names_each_drifted_file(self, tmp_path, capsys):
        protocol = load_lock(REPO_ROOT / "protocol.lock.json")
        protocol["ops"]["put"]["request"]["attribute"]["required"] = False
        guards = load_lock(REPO_ROOT / "guards.lock.json")
        guards["fields"]["sim.process.SimProcess.stop_reason"]["witness"] = False
        (tmp_path / "protocol.lock.json").write_text(render_lock(protocol))
        (tmp_path / "guards.lock.json").write_text(render_lock(guards))
        assert main(["manifests", "check", "--root", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"drift against {tmp_path / 'protocol.lock.json'}" in err
        assert "ops.put.request.attribute.required" in err
        assert f"drift against {tmp_path / 'guards.lock.json'}" in err
        assert "fields.sim.process.SimProcess.stop_reason.witness" in err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
