"""Process lifecycle tests: the state machine TDP's Section 3.1 needs."""

import pytest

from repro.errors import (
    AttachError,
    ExecutableNotFoundError,
    InvalidProcessStateError,
)
from repro.sim.cluster import SimCluster
from repro.sim.process import ProcessState, StopReason


@pytest.fixture
def cluster():
    with SimCluster.flat(["node1"]) as c:
        yield c


class TestCreateRun:
    def test_run_to_completion(self, cluster):
        proc = cluster.host("node1").create_process("hello", ["tdp"])
        assert proc.wait_for_exit(timeout=10.0) == 0
        assert proc.stdout_lines == ["hello, tdp"]

    def test_exit_code_propagates(self, cluster):
        proc = cluster.host("node1").create_process("exiter", ["3"])
        assert proc.wait_for_exit(timeout=10.0) == 3

    def test_cpu_time_accrues(self, cluster):
        proc = cluster.host("node1").create_process("cpu_burn", ["0.5"])
        proc.wait_for_exit(timeout=10.0)
        assert proc.cpu_time == pytest.approx(0.5, rel=0.05)

    def test_unknown_executable(self, cluster):
        with pytest.raises(ExecutableNotFoundError):
            cluster.host("node1").create_process("no_such_binary")

    def test_pids_unique(self, cluster):
        host = cluster.host("node1")
        pids = {host.create_process("hello").pid for _ in range(10)}
        assert len(pids) == 10


class TestCreatePaused:
    def test_paused_process_does_not_start(self, cluster):
        proc = cluster.host("node1").create_process("hello", paused=True)
        assert proc.state is ProcessState.STOPPED
        with proc.lock:  # stop_reason is lock-guarded (guards.lock.json)
            assert proc.stop_reason is StopReason.CREATED_PAUSED
        # Nothing has executed: the pre-main window of paper Section 2.2.
        import time

        time.sleep(0.05)
        assert not proc.started
        assert proc.stdout_lines == []

    def test_continue_runs_to_completion(self, cluster):
        proc = cluster.host("node1").create_process("hello", ["x"], paused=True)
        proc.continue_process()
        assert proc.wait_for_exit(timeout=10.0) == 0
        assert proc.stdout_lines == ["hello, x"]

    def test_continue_on_running_process_rejected(self, cluster):
        proc = cluster.host("node1").create_process("sleeper", ["100"])
        proc.wait_for_state(ProcessState.BLOCKED, ProcessState.RUNNABLE, timeout=5.0)
        # may be RUNNABLE or BLOCKED, never STOPPED
        with pytest.raises(InvalidProcessStateError):
            proc.continue_process()
        proc.terminate()

    def test_continue_on_exited_rejected(self, cluster):
        proc = cluster.host("node1").create_process("hello")
        proc.wait_for_exit(timeout=10.0)
        with pytest.raises(InvalidProcessStateError):
            proc.continue_process()


class TestPauseResume:
    def test_stop_and_resume_midway(self, cluster):
        proc = cluster.host("node1").create_process("spin")
        proc.request_stop()
        proc.wait_for_state(ProcessState.STOPPED, timeout=5.0)
        cpu_at_stop = proc.cpu_time
        import time

        time.sleep(0.05)
        assert proc.cpu_time == cpu_at_stop  # really stopped
        proc.continue_process()
        proc.wait_for_state(ProcessState.RUNNABLE, ProcessState.EXITED, timeout=5.0)
        proc.terminate()

    def test_stop_blocked_process(self, cluster):
        proc = cluster.host("node1").create_process("echo_stdin")
        proc.wait_for_state(ProcessState.BLOCKED, timeout=5.0)
        proc.request_stop()
        assert proc.state is ProcessState.STOPPED
        # stdin arriving while stopped must NOT run the process...
        proc.feed_stdin("while-stopped")
        import time

        time.sleep(0.05)
        assert proc.stdout_lines == []
        # ...but is consumed after continue.
        proc.continue_process()
        proc.close_stdin()
        assert proc.wait_for_exit(timeout=10.0) == 0
        assert proc.stdout_lines == ["echo: while-stopped"]

    def test_stop_on_exited_raises(self, cluster):
        proc = cluster.host("node1").create_process("hello")
        proc.wait_for_exit(timeout=10.0)
        with pytest.raises(InvalidProcessStateError):
            proc.request_stop()

    def test_pause_outlived_by_a_concurrent_continue_returns(self, cluster):
        """A pause whose stop took effect returns even when another
        controller continues the process before the pausing thread runs
        again: it waits for the stop, not for the state."""
        from repro.tdp.process import SimHostBackend

        proc = cluster.host("node1").create_process("spin")
        set_state = proc._set_state

        def continued_at_once(state, reason):
            set_state(state, reason)
            if state is ProcessState.STOPPED:  # the other controller's continue
                set_state(ProcessState.RUNNABLE, None)

        proc._set_state = continued_at_once
        backend = SimHostBackend(cluster.host("node1"))
        backend.PAUSE_TIMEOUT = 2.0
        backend.pause(proc.pid)
        del proc._set_state
        proc.terminate()

    def test_redundant_stop_is_noop(self, cluster):
        proc = cluster.host("node1").create_process("spin")
        proc.request_stop()
        proc.wait_for_state(ProcessState.STOPPED, timeout=5.0)
        proc.request_stop()  # second stop: no-op
        assert proc.state is ProcessState.STOPPED
        proc.terminate()


class TestAttachDetach:
    def test_attach_stops_running_process(self, cluster):
        proc = cluster.host("node1").create_process("spin")
        proc.attach("paradynd")
        proc.wait_for_state(ProcessState.STOPPED, timeout=5.0)
        assert proc.tracer == "paradynd"
        proc.terminate()

    def test_double_attach_rejected(self, cluster):
        proc = cluster.host("node1").create_process("spin")
        proc.attach("tool-a")
        with pytest.raises(AttachError):
            proc.attach("tool-b")
        proc.terminate()

    def test_attach_to_exited_rejected(self, cluster):
        proc = cluster.host("node1").create_process("hello")
        proc.wait_for_exit(timeout=10.0)
        with pytest.raises(AttachError):
            proc.attach("tool")

    def test_detach_resumes(self, cluster):
        proc = cluster.host("node1").create_process("spin")
        proc.attach("tool")
        proc.wait_for_state(ProcessState.STOPPED, timeout=5.0)
        cpu_at_detach = proc.cpu_time
        proc.detach(resume=True)
        assert proc.tracer is None
        # It runs again: CPU accrues past the stop point.
        import time

        deadline = time.monotonic() + 5.0
        while proc.cpu_time <= cpu_at_detach and time.monotonic() < deadline:
            time.sleep(0.005)
        assert proc.cpu_time > cpu_at_detach
        proc.terminate()

    def test_detach_without_tracer_raises(self, cluster):
        proc = cluster.host("node1").create_process("spin")
        with pytest.raises(AttachError):
            proc.detach()
        proc.terminate()


class TestSignals:
    def test_sigstop_sigcont(self, cluster):
        host = cluster.host("node1")
        proc = host.create_process("spin")
        host.signal(proc.pid, 19)
        proc.wait_for_state(ProcessState.STOPPED, timeout=5.0)
        host.signal(proc.pid, 18)
        proc.wait_for_state(ProcessState.RUNNABLE, timeout=5.0)
        proc.terminate()

    def test_sigkill(self, cluster):
        host = cluster.host("node1")
        proc = host.create_process("sleeper", ["100"])
        host.signal(proc.pid, 9)
        assert proc.wait_for_exit(timeout=5.0) == 128 + 9
        assert proc.exit_signal == 9

    def test_unsupported_signal(self, cluster):
        proc = cluster.host("node1").create_process("sleeper", ["100"])
        with pytest.raises(ValueError):
            proc.deliver_signal(64)
        proc.terminate()


class TestTermination:
    def test_crash_records_fault(self, cluster):
        proc = cluster.host("node1").create_process("crasher")
        assert proc.wait_for_exit(timeout=10.0) == 139
        assert proc.fault is not None and "injected crash" in proc.fault

    def test_exit_listener_fires(self, cluster):
        events = []
        proc = cluster.host("node1").create_process("hello")
        proc.on_exit(lambda p: events.append(p.exit_code))
        proc.wait_for_exit(timeout=10.0)
        import time

        deadline = time.monotonic() + 2.0
        while not events and time.monotonic() < deadline:
            time.sleep(0.005)
        assert events == [0]

    def test_kill_that_beats_the_scheduler_to_a_step_exits_once(self, cluster):
        """terminate() between the slice's RUNNABLE check and the step:
        the step finds the generator closed, and must not finish the
        process a second time (exit code 0, listeners run again)."""
        proc = cluster.host("node1").create_process("spin", paused=True)
        exits = []
        proc.on_exit(lambda p: exits.append(p.exit_code))
        proc.terminate(15)
        assert cluster.scheduler._execute_one(proc) is None
        assert proc.exit_code == 128 + 15
        assert exits == [128 + 15]

    def test_exit_listener_after_exit_fires_immediately(self, cluster):
        proc = cluster.host("node1").create_process("hello")
        proc.wait_for_exit(timeout=10.0)
        events = []
        proc.on_exit(lambda p: events.append(p.exit_code))
        assert events == [0]

    def test_terminate_idempotent(self, cluster):
        proc = cluster.host("node1").create_process("sleeper", ["100"])
        proc.terminate()
        proc.terminate()
        assert proc.exit_code == 128 + 15
