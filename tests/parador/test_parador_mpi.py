"""Parador MPI universe: N-rank jobs, one paradynd per rank (Section 4.3)."""

import threading
import time

import pytest

from repro import errors
from repro.condor import mpi_universe
from repro.condor.job import JobStatus
from repro.mpisim.runtime import MpiRuntime
from repro.parador.run import ParadorScenario
from repro.util.log import TraceRecorder


def mpi_submit_text(scenario, executable, machine_count, arguments=""):
    return (
        f"universe = MPI\n"
        f"executable = {executable}\n"
        f"arguments = {arguments}\n"
        f"machine_count = {machine_count}\n"
        f"output = outfile\n"
        f"+SuspendJobAtExec = True\n"
        f'+ToolDaemonCmd = "paradynd"\n'
        f'+ToolDaemonArgs = "-zunix -l3 -m{scenario.submit_host} '
        f'-p{scenario.port1} -P{scenario.port2} -a%pid"\n'
        f"queue\n"
    )


def launch_threads(job_id):
    """Threads that exist only for one gang's launch."""
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith((
            f"mpi-workers-{job_id}", f"mpi-rank-{job_id}-",
            f"paradynd-{job_id}", f"attr-client-starter/{job_id}.r",
            f"tdp-service-starter/{job_id}.r",
        ))
    ]


def wait_until(predicate, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def runtime_is_empty(scenario):
    """Every gang that ran has been forgotten by the MPI runtime."""
    runtime = MpiRuntime.ensure(scenario.cluster)
    return wait_until(lambda: runtime._jobs == {}, timeout=5.0)


@pytest.fixture
def scenario():
    with ParadorScenario(
        execute_hosts=["node1", "node2", "node3"], trace=TraceRecorder()
    ) as s:
        yield s
        assert runtime_is_empty(s)


class TestMonitoredMpiJob:
    def test_ring_job_completes(self, scenario):
        job = scenario.pool.submit_file(
            mpi_submit_text(scenario, "mpi_ring", 3, "2")
        )[0]
        assert job.wait_terminal(timeout=90.0) is JobStatus.COMPLETED
        assert job.exit_code == 0

    def test_one_paradynd_per_rank(self, scenario):
        job = scenario.pool.submit_file(
            mpi_submit_text(scenario, "mpi_ring", 3, "1")
        )[0]
        sessions = scenario.frontend.wait_for_daemons(3, timeout=90.0)
        assert job.wait_terminal(timeout=90.0) is JobStatus.COMPLETED
        assert len(sessions) == 3
        # Each daemon monitors a distinct process, spread over the pool.
        pids = {(s.host, s.pid) for s in sessions}
        assert len(pids) == 3
        hosts = {s.host for s in sessions}
        assert hosts == {"node1", "node2", "node3"}

    def test_every_rank_attached_before_running(self, scenario):
        """All ranks are created paused and attached by a paradynd before
        they execute — the tool observes every rank from its start."""
        job = scenario.pool.submit_file(
            mpi_submit_text(scenario, "mpi_pi", 3, "1500")
        )[0]
        sessions = scenario.frontend.wait_for_daemons(3, timeout=90.0)
        assert job.wait_terminal(timeout=90.0) is JobStatus.COMPLETED
        for session in sessions:
            session.wait_state("exited", timeout=60.0)
            # The daemon's base instrumentation saw the whole run.
            cpu = session.latest("proc_cpu")
            assert cpu is not None and cpu > 0.0

    def test_pi_result_correct_under_monitoring(self, scenario):
        import math, time

        job = scenario.pool.submit_file(
            mpi_submit_text(scenario, "mpi_pi", 3, "3000")
        )[0]
        assert job.wait_terminal(timeout=90.0) is JobStatus.COMPLETED
        deadline = time.monotonic() + 10.0
        while not job.stdout_lines and time.monotonic() < deadline:
            time.sleep(0.01)
        value = float(job.stdout_lines[0].split("=")[1])
        assert value == pytest.approx(math.pi, abs=1e-3)

    def test_every_ranks_tool_output_is_written_on_its_host(self, scenario):
        """``+ToolDaemonOutput`` names a file on each rank's host: a
        worker rank's paradynd writes its own, as rank 0's does."""
        text = mpi_submit_text(scenario, "mpi_ring", 2, "1").replace(
            "queue\n", '+ToolDaemonOutput = "daemon.out"\nqueue\n'
        )
        job = scenario.pool.submit_file(text)[0]
        assert job.wait_terminal(timeout=90.0) is JobStatus.COMPLETED

        def written():
            return {
                host for host in ("node1", "node2", "node3")
                if scenario.cluster.host(host).filesystem.get("daemon.out")
            }

        assert wait_until(lambda: len(written()) == 2, timeout=30.0), written()

    def test_mpi_trace_has_per_rank_launch_steps(self, scenario):
        job = scenario.pool.submit_file(
            mpi_submit_text(scenario, "mpi_ring", 3, "1")
        )[0]
        assert job.wait_terminal(timeout=90.0) is JobStatus.COMPLETED
        trace = scenario.trace
        assert trace.first("mpi_master_create") is not None
        assert trace.first("master_running") is not None
        coord = f"mpi-coord/{job.job_id}"
        creates = [
            e for e in trace.events(actor=coord, action="tdp_create_process")
            if str(e.details.get("target", "")).startswith("AP.r")
        ]
        assert len(creates) == 2  # ranks 1 and 2


class TestUnmonitoredMpiJob:
    def test_plain_mpi_job(self, scenario):
        text = (
            "universe = MPI\nexecutable = mpi_ring\narguments = 2\n"
            "machine_count = 3\nqueue\n"
        )
        job = scenario.pool.submit_file(text)[0]
        assert job.wait_terminal(timeout=90.0) is JobStatus.COMPLETED

    def test_runtime_forgets_finished_gangs(self, scenario):
        text = (
            "universe = MPI\nexecutable = mpi_ring\narguments = 1\n"
            "machine_count = 3\nqueue\n"
        )
        for _ in range(5):
            job = scenario.pool.submit_file(text)[0]
            assert job.wait_terminal(timeout=90.0) is JobStatus.COMPLETED
        assert runtime_is_empty(scenario)

    def test_insufficient_machines_fails(self, scenario):
        scenario.pool.schedd.RETRY_INTERVAL = 0.01
        text = (
            "universe = MPI\nexecutable = mpi_ring\narguments = 1\n"
            "machine_count = 9\nqueue\n"
        )
        job = scenario.pool.submit_file(text)[0]
        assert job.wait_terminal(timeout=60.0) is JobStatus.FAILED


class TestRankThatCannotStart:
    """A gang with one rank missing never finishes on its own — its
    peers wait for the rank that is not coming — so the first rank that
    cannot be started fails the job and everything created is killed."""

    @pytest.fixture
    def scenario(self):
        hosts = [f"node{i}" for i in range(4)]
        with ParadorScenario(execute_hosts=hosts, trace=TraceRecorder()) as s:
            yield s
            assert runtime_is_empty(s)

    def lass_unreachable(self, monkeypatch, scenario):
        init = mpi_universe.tdp_init

        def refusing(transport, endpoint, *, context, **kwargs):
            if context.endswith(".r2"):
                raise errors.ConnectError("LASS unreachable")
            return init(transport, endpoint, context=context, **kwargs)

        monkeypatch.setattr(mpi_universe, "tdp_init", refusing)

    def create_refused(self, monkeypatch, scenario):
        create = mpi_universe.tdp_create_process

        def refusing(handle, executable, arguments, *, env, **kwargs):
            if env["MPI_RANK"] == "2":
                raise errors.ProcessError("create refused")
            return create(handle, executable, arguments, env=env, **kwargs)

        monkeypatch.setattr(mpi_universe, "tdp_create_process", refusing)

    def tool_launcher_raises(self, monkeypatch, scenario):
        tools = scenario.pool.tools
        resolve = tools.resolve

        def launcher_for(cmd):
            launch = resolve(cmd)

            def raising(ctx):
                if ctx.context.endswith(".r2"):
                    raise RuntimeError("tool launcher blew up")
                return launch(ctx)

            return raising

        monkeypatch.setattr(tools, "resolve", launcher_for)

    @pytest.mark.parametrize(
        "breakage", ["lass_unreachable", "create_refused", "tool_launcher_raises"]
    )
    def test_job_fails_and_every_machine_is_released(
        self, monkeypatch, scenario, breakage
    ):
        getattr(self, breakage)(monkeypatch, scenario)
        job = scenario.pool.submit_file(
            mpi_submit_text(scenario, "mpi_ring", 4, "1")
        )[0]
        assert job.wait_terminal(timeout=5.0) is JobStatus.FAILED
        assert "rank 2 could not be started" in job.failure_reason
        (failed,) = scenario.trace.events(action="rank_start_failed")
        assert failed.details["rank"] == 2 and failed.details["error"]
        (exited,) = scenario.trace.events(actor="starter", action="job_exited")
        assert exited.details["code"] == 128 + 15  # the ranks were killed
        pool = scenario.pool
        assert wait_until(
            lambda: not any(s.claimed for s in pool.startds.values())
            and pool.matchmaker.reserved_count() == 0
            and not launch_threads(job.job_id),
            timeout=5.0,
        ), launch_threads(job.job_id)
        # nothing of the gang still runs
        assert scenario.cluster.total_process_count(alive_only=True) == 0

    def test_pool_runs_the_next_gang(self, monkeypatch, scenario):
        with monkeypatch.context() as broken:
            self.lass_unreachable(broken, scenario)
            job = scenario.pool.submit_file(
                mpi_submit_text(scenario, "mpi_ring", 4, "1")
            )[0]
            assert job.wait_terminal(timeout=5.0) is JobStatus.FAILED
        job = scenario.pool.submit_file(
            mpi_submit_text(scenario, "mpi_ring", 4, "1")
        )[0]
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
