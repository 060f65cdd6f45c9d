"""Integration: the full file-staging story through the batch system.

TDP's staging requirements end-to-end: tool config files travel to the
execution node before launch (``transfer_input_files`` /
``+ToolDaemonTransferInput``); tool trace/summary files and declared
outputs travel back after the application completes.
"""

import time

import pytest

from repro.condor.job import JobStatus
from repro.parador.run import ParadorScenario
from repro.util.log import TraceRecorder


@pytest.fixture
def scenario():
    with ParadorScenario(execute_hosts=["node1"], trace=TraceRecorder()) as s:
        yield s


def submit_with_staging(scenario, *, extra_lines=""):
    return (
        "universe = Vanilla\n"
        "executable = foo\n"
        "arguments = 3 0.05\n"
        "output = outfile\n"
        "transfer_input_files = paradyn.rc\n"
        "+SuspendJobAtExec = True\n"
        '+ToolDaemonCmd = "paradynd"\n'
        f'+ToolDaemonArgs = "-zunix -l3 -m{scenario.submit_host} '
        f'-p{scenario.port1} -P{scenario.port2} -a%pid"\n'
        '+ToolDaemonOutput = "daemon.out"\n'
        f"{extra_lines}"
        "queue\n"
    )


class TestStageIn:
    def test_config_file_reaches_execution_node(self, scenario):
        scenario.cluster.host("submit").filesystem["paradyn.rc"] = "option x\n"
        job = scenario.pool.submit_file(submit_with_staging(scenario))[0]
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        assert (
            scenario.cluster.host("node1").filesystem.get("paradyn.rc")
            == "option x\n"
        )
        assert scenario.trace.first("stage_in") is not None

    def test_missing_input_logged_not_fatal(self, scenario):
        # 'paradyn.rc' absent from the submit host: job still runs.
        job = scenario.pool.submit_file(submit_with_staging(scenario))[0]
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        assert scenario.trace.first("stage_in_skipped") is not None


class TestStageOut:
    def test_tool_trace_returns_to_submit_host(self, scenario):
        scenario.cluster.host("submit").filesystem["paradyn.rc"] = "x"
        job = scenario.pool.submit_file(submit_with_staging(scenario))[0]
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        submit_fs = scenario.cluster.host("submit").filesystem
        trace_name = f"paradyn.{job.job_id}.trace"
        deadline = time.monotonic() + 15.0
        while trace_name not in submit_fs and time.monotonic() < deadline:
            time.sleep(0.02)
        assert trace_name in submit_fs, sorted(submit_fs)
        assert "proc_cpu" in submit_fs[trace_name]

    def test_tool_daemon_output_returns(self, scenario):
        scenario.cluster.host("submit").filesystem["paradyn.rc"] = "x"
        job = scenario.pool.submit_file(submit_with_staging(scenario))[0]
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        submit_fs = scenario.cluster.host("submit").filesystem
        deadline = time.monotonic() + 15.0
        while "daemon.out" not in submit_fs and time.monotonic() < deadline:
            time.sleep(0.02)
        assert "tdp_attach" in submit_fs["daemon.out"]

    def test_declared_outputs_glob(self, scenario):
        # A job-declared transfer_output_files glob is honored too.
        scenario.cluster.host("submit").filesystem["paradyn.rc"] = "x"
        text = submit_with_staging(
            scenario, extra_lines="transfer_output_files = paradyn.*.trace\n"
        )
        job = scenario.pool.submit_file(text)[0]
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        # stage-out runs in the starter's cleanup, after the exit report.
        deadline = time.monotonic() + 15.0
        while scenario.trace.first("stage_out") is None and (
            time.monotonic() < deadline
        ):
            time.sleep(0.02)
        stage_out = scenario.trace.first("stage_out")
        assert stage_out is not None
        assert "trace" in stage_out.details["files"]
