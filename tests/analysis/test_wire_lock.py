"""The committed protocol.lock.json drift gate and its CLI.

Tier-1: a source change that alters the wire contract without
regenerating the lock (``python -m repro manifests dump``) fails here,
and the non-vacuity pins guard against the inference silently
collapsing to an empty schema.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis import wireschema
from repro.attrspace import protocol

REPO_ROOT = Path(__file__).resolve().parents[2]
LOCK_PATH = REPO_ROOT / "protocol.lock.json"


def run_cli(*argv, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "-m", "repro", "manifests", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_lock_file_is_committed():
    assert LOCK_PATH.exists(), \
        "protocol.lock.json missing — run `python -m repro manifests dump`"


def test_committed_lock_matches_source_tree():
    committed = wireschema.load_lock(LOCK_PATH)
    current = wireschema.to_lock(wireschema.infer_from_tree())
    drift = wireschema.lock_drift(committed, current)
    assert not drift, (
        "wire schema drift — run `python -m repro manifests dump` and "
        "review the diff:\n" + "\n".join(drift)
    )


def test_lock_file_is_canonically_rendered():
    committed = wireschema.load_lock(LOCK_PATH)
    assert LOCK_PATH.read_text(encoding="utf-8") == \
        wireschema.render_lock(committed)


def test_schema_covers_all_thirteen_ops():
    """Non-vacuity: every OP_* constant must appear in the lock."""
    lock = wireschema.load_lock(LOCK_PATH)
    op_values = {
        value for name, value in vars(protocol).items()
        if name.startswith("OP_")
    }
    assert len(op_values) == 13
    covered = set(lock["ops"]) | {"notify"}
    assert op_values <= covered, f"ops missing from lock: {op_values - covered}"
    assert lock["notify"], "notify schema collapsed to empty"
    assert set(lock["batch_sub_ops"]) == {"get", "put", "remove"}


def test_lock_errors_match_wire_maps():
    lock = wireschema.load_lock(LOCK_PATH)
    assert set(lock["errors"]) == set(protocol._ERROR_TYPES)
    assert lock["errors"]["no_such_attribute"] == "NoSuchAttributeError"
    assert set(lock["waivers"]) == {"batch:get.request.block"}


def test_schema_fields_are_not_vacuous():
    """A handful of load-bearing fields pinned by name."""
    lock = wireschema.load_lock(LOCK_PATH)
    assert lock["ops"]["put"]["request"]["attribute"]["required"]
    assert lock["ops"]["get"]["request"]["timeout"]["required"] is False
    assert lock["ops"]["subscribe"]["reply"]["sub"]["types"] == ["int"]
    assert lock["batch_sub_ops"]["put"]["request"]["ephemeral"]["required"] \
        is False
    assert lock["error_reply"]["error_type"]["reader_default"] == "protocol"


def test_cli_check_passes_on_committed_lock():
    proc = run_cli("check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "matches the source tree" in proc.stdout


def test_cli_check_detects_drift(tmp_path):
    tampered = wireschema.load_lock(LOCK_PATH)
    tampered["ops"]["put"]["request"]["attribute"]["required"] = False
    alt = tmp_path / "protocol.lock.json"
    alt.write_text(wireschema.render_lock(tampered), encoding="utf-8")
    other = "guards.lock.json"
    (tmp_path / other).write_bytes((REPO_ROOT / other).read_bytes())
    proc = run_cli("check", "--root", str(tmp_path))
    assert proc.returncode == 1
    assert "drift" in proc.stderr
    assert f"{tmp_path / other} matches the source tree" in proc.stdout
    assert "ops.put.request.attribute.required" in proc.stderr


def test_cli_check_reports_missing_lock(tmp_path):
    proc = run_cli("check", "--root", str(tmp_path))
    assert proc.returncode == 1
    assert "missing lock file" in proc.stderr


def test_cli_dump_writes_lock(tmp_path):
    target = tmp_path / "protocol.lock.json"
    proc = run_cli("dump", "--root", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(target.read_text(encoding="utf-8")) == \
        wireschema.load_lock(LOCK_PATH)
