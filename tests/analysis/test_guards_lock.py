"""The committed guards.lock.json drift gate, its CLI, and non-vacuity pins.

Tier-1: a source change that alters the guard discipline without
regenerating the manifest (``python -m repro manifests dump``) fails here,
and the pins guard against the inference silently collapsing — a
guarded-by checker that infers nothing passes trivially.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis import guards

REPO_ROOT = Path(__file__).resolve().parents[2]
LOCK_PATH = REPO_ROOT / guards.LOCK_FILENAME


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
        "guards.lock.json missing — run `python -m repro manifests dump`"


def test_committed_lock_matches_source_tree():
    committed = guards.load_lock(LOCK_PATH)
    current = guards.to_lock(guards.infer_from_tree())
    drift = guards.lock_drift(committed, current)
    assert not drift, (
        "guard manifest drift — run `python -m repro manifests dump` and "
        "review the diff:\n" + "\n".join(drift)
    )


def test_lock_file_is_canonically_rendered():
    committed = guards.load_lock(LOCK_PATH)
    assert LOCK_PATH.read_text(encoding="utf-8") == \
        guards.render_lock(committed)


def test_inference_is_not_vacuous():
    """Coverage floors: a refactor that blinds the inference (broken
    lock-key resolution, empty root map, lost access extraction) shows
    up here, not as the guard rules passing trivially."""
    report = guards.infer_from_tree()
    assert len(report.fields) > 150, "candidate-field extraction collapsed"
    assert report.total_sites > 700, "access-site extraction collapsed"
    # 15 spawn targets: a serve_loop callback or a deliver sink is not one
    assert len(report.thread_roots) > 14, "thread-root resolution collapsed"
    assert len(report.tracked_lock_keys) > 25, "tracked-lock detection collapsed"
    lock = guards.to_lock(report)
    assert len(lock["fields"]) > 50, "guarded-field manifest collapsed"
    witnessed = [k for k, f in lock["fields"].items() if f["witness"]]
    assert len(witnessed) > 20, "witnessed-field set collapsed"


def test_known_guards_are_pinned():
    """Load-bearing manifest entries pinned by name: the sim process
    state machine, the client session, and the lease table."""
    lock = guards.load_lock(LOCK_PATH)
    fields = lock["fields"]
    assert fields["sim.process.SimProcess.stop_reason"]["guard"] == \
        "sim.process.SimProcess.lock"
    assert fields["sim.process.SimProcess.stop_reason"]["witness"] is True
    assert fields["attrspace.client._Session._channel"]["guard"] \
        == "attrspace.client._Session._lock"
    assert fields["attrspace.server._SessionLease.conn_id"]["witness"] is True
    # Declared disciplines survive the round-trip: a benign-race latch
    # and a thread-confinement.
    assert fields["condor.startd.Startd._stopped"]["guard"] == "volatile"
    assert fields["condor.startd.Startd._stopped"]["source"] == "declared"
    assert fields["sim.process.SimProcess.pending_syscall"]["guard"] == \
        "confined:sim.kernel.Scheduler._loop"
    # Confined/volatile/plain-lock fields are never witnessed.
    for key, spec in fields.items():
        if spec["guard"] == "volatile" or spec["guard"].startswith("confined:"):
            assert spec["witness"] is False, key


def test_waivers_are_exactly_the_committed_set():
    lock = guards.load_lock(LOCK_PATH)
    assert set(lock["waivers"]) == {
        "attrspace.server._Connection.member"
        "@attrspace.server.AttributeSpaceServer._op_attach",
        "sim.process.SimProcess.state@sim.process.SimProcess.__repr__",
        "sim.process.SimProcess.pending_syscall"
        "@sim.process.SimProcess._finish",
        "transport.eventloop._Conn.token"
        "@transport.eventloop.ServerSocketLoop._teardown_conn",
    }


def test_cli_check_passes_on_committed_lock():
    proc = run_cli("check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "matches the source tree" in proc.stdout


def test_cli_check_detects_drift(tmp_path):
    tampered = guards.load_lock(LOCK_PATH)
    tampered["fields"]["sim.process.SimProcess.stop_reason"]["witness"] = False
    alt = tmp_path / "guards.lock.json"
    alt.write_text(guards.render_lock(tampered), encoding="utf-8")
    other = "protocol.lock.json"
    (tmp_path / other).write_bytes((REPO_ROOT / other).read_bytes())
    proc = run_cli("check", "--root", str(tmp_path))
    assert proc.returncode == 1
    assert "drift" in proc.stderr
    assert f"{tmp_path / other} matches the source tree" in proc.stdout
    assert "sim.process.SimProcess.stop_reason" in proc.stderr


def test_cli_check_reports_missing_lock(tmp_path):
    proc = run_cli("check", "--root", str(tmp_path))
    assert proc.returncode == 1
    assert "missing lock file" in proc.stderr


def test_cli_dump_writes_lock(tmp_path):
    target = tmp_path / "guards.lock.json"
    proc = run_cli("dump", "--root", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(target.read_text(encoding="utf-8")) == \
        guards.load_lock(LOCK_PATH)
