"""Integration: attach mode through the full batch stack (Figure 3B).

The pilot only demonstrated create mode; this is the paper's other
scenario end to end: an unmonitored job runs under Condor, and *later*
the user asks for a tool — the RM launches paradynd, which attaches to
the running process at an unknown point and monitors it from there.
"""

import time

import pytest

from repro import errors
from repro.condor.job import JobStatus
from repro.paradyn import daemon as paradyn_daemon
from repro.parador.run import ParadorScenario
from repro.util.log import TraceRecorder


@pytest.fixture
def scenario():
    with ParadorScenario(execute_hosts=["node1"], trace=TraceRecorder()) as s:
        yield s


def submit_plain_server(scenario):
    """A long-running unmonitored job (the attach-mode target)."""
    text = "universe = Vanilla\nexecutable = spin\noutput = outfile\nqueue\n"
    job = scenario.pool.submit_file(text)[0]
    job.wait_for(JobStatus.RUNNING, timeout=30.0)
    deadline = time.monotonic() + 10.0
    while job.app_pid is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert job.app_pid is not None
    return job


def paradynd_args(scenario):
    return (
        f"-zunix -l3 -m{scenario.submit_host} -p{scenario.port1} "
        f"-P{scenario.port2} -a%pid"
    )


class TestAttachModePipeline:
    def test_tool_attaches_to_running_job(self, scenario):
        job = submit_plain_server(scenario)
        proc = scenario.cluster.host("node1").get_process(job.app_pid)
        # Let it accumulate some unmonitored history.
        deadline = time.monotonic() + 10.0
        while proc.cpu_time < 0.01 and time.monotonic() < deadline:
            time.sleep(0.005)
        cpu_before_attach = proc.cpu_time
        assert cpu_before_attach > 0.0

        scenario.pool.schedd.attach_tool(
            str(job.job_id), "paradynd", paradynd_args(scenario)
        )
        [session] = scenario.frontend.wait_for_daemons(1, timeout=30.0)
        # Attach mode announces itself (no at_main stop: it was running).
        session.wait_state("attached_running", "running", timeout=30.0)
        assert session.pid == job.app_pid

        # The tool monitors from here on; finish the job.
        time.sleep(0.1)
        proc.terminate(15)
        assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
        session.wait_state("exited", timeout=30.0)
        assert session.exit_code == 128 + 15

    def test_attach_records_trace(self, scenario):
        job = submit_plain_server(scenario)
        scenario.pool.schedd.attach_tool(
            str(job.job_id), "paradynd", paradynd_args(scenario)
        )
        scenario.frontend.wait_for_daemons(1, timeout=30.0)
        deadline = time.monotonic() + 10.0
        while scenario.trace.first("attached_mid_run") is None and (
            time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert scenario.trace.first("attach_tool") is not None
        assert scenario.trace.first("attached_mid_run") is not None
        scenario.cluster.host("node1").get_process(job.app_pid).terminate()
        job.wait_terminal(timeout=30.0)

    def test_second_attach_refused(self, scenario):
        from repro.errors import ResourceManagerError

        job = submit_plain_server(scenario)
        scenario.pool.schedd.attach_tool(
            str(job.job_id), "paradynd", paradynd_args(scenario)
        )
        scenario.frontend.wait_for_daemons(1, timeout=30.0)
        with pytest.raises(ResourceManagerError, match="already monitored"):
            scenario.pool.schedd.attach_tool(
                str(job.job_id), "paradynd", paradynd_args(scenario)
            )
        scenario.cluster.host("node1").get_process(job.app_pid).terminate()
        job.wait_terminal(timeout=30.0)

    def test_failed_attach_leaves_the_job_unmonitored(self, scenario, monkeypatch):
        """A tool that cannot be launched changes nothing about the job:
        its description stays unmonitored and nothing is staged out for a
        tool that never ran — and a later attach still works."""
        from repro.errors import ResourceManagerError
        from repro.tdp.files import FileStager

        staged = []
        monkeypatch.setattr(
            FileStager, "stage_out",
            lambda self, src, dst, patterns: staged.append(patterns) or [],
        )
        job = submit_plain_server(scenario)
        (starter,) = scenario.pool.startds["node1"].starters()
        with pytest.raises(ResourceManagerError, match="could not attach"):
            scenario.pool.schedd.attach_tool(
                str(job.job_id), "no-such-tool", "-a%pid"
            )
        assert starter._desc.monitored is False
        scenario.pool.schedd.remove(str(job.job_id))
        assert job.wait_terminal(timeout=30.0) is JobStatus.REMOVED
        starter.wait(timeout=30.0)
        assert staged == []

    def test_attach_idle_job_rejected(self, scenario):
        from repro.errors import ResourceManagerError

        scenario.pool.schedd.RETRY_INTERVAL = 1.0
        text = (
            "universe = Vanilla\nexecutable = hello\n"
            "requirements = TARGET.Memory >= 10**9\nqueue\n"
        )
        job = scenario.pool.submit_file(text)[0]
        with pytest.raises(ResourceManagerError, match="no active claim"):
            scenario.pool.schedd.attach_tool(
                str(job.job_id), "paradynd", paradynd_args(scenario)
            )

    def test_metrics_cover_only_post_attach_window(self, scenario):
        """Attach-mode semantics: the tool's measurements start at attach,
        so its function counters see only subsequent activity."""
        job = submit_plain_server(scenario)
        proc = scenario.cluster.host("node1").get_process(job.app_pid)
        deadline = time.monotonic() + 10.0
        while proc.cpu_time < 0.02 and time.monotonic() < deadline:
            time.sleep(0.005)
        pre_attach_cpu = proc.cpu_time

        scenario.pool.schedd.attach_tool(
            str(job.job_id), "paradynd", paradynd_args(scenario)
        )
        [session] = scenario.frontend.wait_for_daemons(1, timeout=30.0)
        session.wait_state("attached_running", "running", timeout=30.0)
        time.sleep(0.2)
        proc.terminate(15)
        job.wait_terminal(timeout=30.0)
        session.wait_state("exited", timeout=30.0)
        # proc_cpu is a whole-process gauge: it INCLUDES pre-attach CPU
        # (the tool reads the kernel's accounting), distinguishing it
        # from create mode where the tool saw everything from zero.
        final_cpu = session.latest("proc_cpu")
        assert final_cpu is not None and final_cpu >= pre_attach_cpu


class TestToolThatAttachesAfterTheExit:
    """A monitored job that runs from the start (+SuspendJobAtExec False)
    and exits before its paradynd attaches: the starter still answers the
    attach, with an error, and tears the job down at once instead of
    after the tool's grace, which the tool would spend waiting out its
    request."""

    def test_late_attach_is_answered_and_the_job_torn_down(self, scenario, monkeypatch):
        outcome = []
        real_attach = paradyn_daemon.tdp_attach

        def attach_after_the_exit(handle, pid):
            scenario.cluster.host("node1").get_process(pid).wait_for_exit(timeout=30.0)
            start = time.monotonic()
            try:
                real_attach(handle, pid)
            except errors.ProcessError as e:
                outcome.append((time.monotonic() - start, str(e)))
                raise

        monkeypatch.setattr(paradyn_daemon, "tdp_attach", attach_after_the_exit)
        job = scenario.pool.submit_file(
            "universe = Vanilla\nexecutable = hello\n+SuspendJobAtExec = False\n"
            '+ToolDaemonCmd = "paradynd"\n'
            f'+ToolDaemonArgs = "{paradynd_args(scenario)}"\nqueue\n'
        )[0]
        assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
        ended = time.monotonic()
        deadline = ended + 30.0
        while not scenario.trace.events(actor="starter", action="tdp_exit") and (
            time.monotonic() < deadline
        ):
            time.sleep(0.01)
        torn_down = time.monotonic() - ended
        [(waited, error)] = outcome
        assert "exited" in error and waited < 2.0
        assert torn_down < 4.0  # the tool's grace is 5 s, then 10 s more
