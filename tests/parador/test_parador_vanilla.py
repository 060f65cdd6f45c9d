"""Parador end-to-end: monitored vanilla jobs (the pilot's main scenario)."""

import time

import pytest

from repro.condor.job import JobStatus
from repro.paradyn.consultant import PerformanceConsultant
from repro.paradyn.metrics import Metric
from repro.parador.run import ParadorScenario
from repro.util.log import TraceRecorder


@pytest.fixture
def scenario():
    with ParadorScenario(execute_hosts=["node1"], trace=TraceRecorder()) as s:
        yield s


class TestMonitoredVanillaJob:
    def test_full_pilot_flow(self, scenario):
        run = scenario.submit_monitored("foo", "3 0.1")
        assert run.job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        assert run.job.exit_code == 0
        # The paradynd observed the exit too.
        run.session.wait_state("exited", timeout=30.0)
        assert run.session.exit_code == 0

    def test_daemon_hello_describes_application(self, scenario):
        run = scenario.submit_monitored("foo", "2 0.05")
        assert run.session.executable == "foo"
        assert "compute_b" in run.session.functions
        assert run.session.pid > 0
        run.job.wait_terminal(timeout=60.0)

    def test_app_created_paused_then_monitored_from_start(self, scenario):
        """+SuspendJobAtExec means the tool sees execution from the very
        first instruction: the paradynd's base instrumentation covers ALL
        of the process's CPU time."""
        run = scenario.submit_monitored("foo", "3 0.1")
        run.job.wait_terminal(timeout=60.0)
        run.session.wait_state("exited", timeout=30.0)
        proc_cpu = run.session.latest(Metric.PROC_CPU.value)
        assert proc_cpu is not None and proc_cpu > 0.25

    def test_output_still_flows_through_condor(self, scenario):
        run = scenario.submit_monitored("hello", "parador")
        run.job.wait_terminal(timeout=60.0)
        deadline = time.monotonic() + 10.0
        while not run.job.stdout_lines and time.monotonic() < deadline:
            time.sleep(0.01)
        assert run.job.stdout_lines == ["hello, parador"]

    def test_tool_daemon_output_written(self, scenario):
        run = scenario.submit_monitored("foo", "2 0.05")
        run.job.wait_terminal(timeout=60.0)
        run.session.wait_state("exited", timeout=30.0)
        fs = scenario.cluster.host("node1").filesystem
        deadline = time.monotonic() + 10.0
        while "daemon.out" not in fs and time.monotonic() < deadline:
            time.sleep(0.01)
        assert "tdp_init" in fs["daemon.out"]
        assert "tdp_attach" in fs["daemon.out"]

    def test_trace_file_left_for_staging(self, scenario):
        run = scenario.submit_monitored("foo", "2 0.05")
        run.job.wait_terminal(timeout=60.0)
        run.session.wait_state("exited", timeout=30.0)
        fs = scenario.cluster.host("node1").filesystem
        deadline = time.monotonic() + 10.0
        trace_name = f"paradyn.{run.job.job_id}.trace"
        while trace_name not in fs and time.monotonic() < deadline:
            time.sleep(0.01)
        assert "proc_cpu" in fs[trace_name]

    def test_figure6_call_sequence(self, scenario):
        """The four-step launch protocol of Figure 6, on the wire."""
        run = scenario.submit_monitored("foo", "2 0.05")
        run.job.wait_terminal(timeout=60.0)
        trace = scenario.trace
        # Starter side (steps 1-2), then paradynd side (step 3).
        trace.assert_order(
            "tdp_init",               # starter creates the TDP framework
            "tdp_create_process",     # AP created paused
            "tdp_put",                # starter publishes the pid
            "tdp_get_returned",       # paradynd's blocking get completes
            "tdp_attach",
            "tdp_continue_process",
        )
        # paradynd blocked on the get BEFORE the starter's put? Not
        # necessarily (the put may win the race) — but the get must have
        # been ISSUED and RETURNED around the put correctly:
        get_issued = trace.index_of("tdp_get", actor="paradynd")
        put_done = trace.index_of("tdp_put", actor="starter")
        get_done = trace.index_of("tdp_get_returned", actor="paradynd")
        assert get_issued < get_done
        assert put_done < get_done


class TestPerformanceConsultant:
    """The pilot's interactive flow: the application stops at main, the
    consultant sets up instrumentation, presses RUN, and localizes the
    planted bottleneck."""

    @pytest.fixture
    def interactive(self):
        with ParadorScenario(execute_hosts=["node1"], auto_run=False) as s:
            yield s

    def test_finds_the_planted_bottleneck(self, interactive):
        run = interactive.submit_monitored("foo", "8 0.1")
        run.session.wait_state("at_main", timeout=30.0)
        result = PerformanceConsultant(run.session).search()
        run.job.wait_terminal(timeout=60.0)
        assert result.bottlenecks and result.bottlenecks[0] == "compute_b"
        assert result.refinement_path == ["CPUBound", "compute_b"]
        # compute_a and write_output (10% each) are below the threshold.
        assert "compute_a" not in result.bottlenecks
        assert "write_output" not in result.bottlenecks

    def test_report_formats(self, interactive):
        run = interactive.submit_monitored("foo", "5 0.1")
        run.session.wait_state("at_main", timeout=30.0)
        result = PerformanceConsultant(run.session).search()
        run.job.wait_terminal(timeout=60.0)
        text = result.format()
        assert "CPUBound" in text and "bottleneck" in text

    def test_a_kill_at_main_ends_the_job_and_the_window(self, interactive):
        """The front end's kill reaches paradynd's channel sink on the
        front end's thread; paradynd carries it out itself and leaves the
        at-main window, so the tool too sees the exit."""
        run = interactive.submit_monitored("foo", "8 0.1")
        run.session.wait_state("at_main", timeout=30.0)
        run.session.cmd_kill()
        assert run.job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
        assert run.job.exit_code == 143
        assert run.session.wait_state("exited", timeout=30.0) == "exited"
        assert run.session.exit_code == 143


class TestUnmonitoredStillWorks:
    def test_plain_job_unaffected_by_parador(self, scenario):
        job = scenario.submit_unmonitored("hello", "plain")
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
