"""Integration: a SECOND tool under the unmodified RM (the m+n proof).

The debugger tool (tdb) runs under exactly the same Condor substrate as
paradynd — different tool logic, zero resource-manager changes.  These
tests are the paper's thesis in executable form.
"""

import time

import pytest

from repro.condor.job import JobStatus
from repro.condor.pool import CondorPool
from repro.condor.starter import Starter
from repro.condor.tools import ToolRegistry
from repro.debugger.daemon import parse_tdb_args, register_tdb
from repro.errors import ToolError
from repro.parador.adapters import register_paradynd
from repro.sim.cluster import SimCluster
from repro.util.log import TraceRecorder


def tdb_submit(executable="foo", arguments="3 0.05", breakpoints=("compute_b",)):
    bp_args = " ".join(f"-b{b}" for b in breakpoints)
    return (
        f"universe = Vanilla\n"
        f"executable = {executable}\n"
        f"arguments = {arguments}\n"
        f"output = outfile\n"
        f"+SuspendJobAtExec = True\n"
        f'+ToolDaemonCmd = "tdb"\n'
        f'+ToolDaemonArgs = "{bp_args} -x2 -a%pid"\n'
        f'+ToolDaemonOutput = "tdb.log"\n'
        f"queue\n"
    )


@pytest.fixture
def world():
    with SimCluster.flat(["submit", "node1"]) as cluster:
        registry = ToolRegistry()
        register_paradynd(registry)  # both tools coexist in the registry
        register_tdb(registry)
        trace = TraceRecorder()
        pool = CondorPool(
            cluster, submit_host="submit", execute_hosts=["node1"],
            tool_registry=registry, trace=trace,
        )
        yield cluster, pool, trace
        pool.stop()


@pytest.fixture
def spawned(monkeypatch):
    """Every starter the test's pool spawns, taken as it starts: a startd
    lets a starter go with its claim once the job has finished."""
    starters = []
    start = Starter.start

    def recording_start(self):
        starters.append(self)
        start(self)

    monkeypatch.setattr(Starter, "start", recording_start)
    return starters


class TestArgs:
    def test_parse(self):
        args = parse_tdb_args(["-bmain", "-bcompute_b", "-x3", "-a%pid"])
        assert args.breakpoints == ["main", "compute_b"]
        assert args.max_hits == 3
        assert args.tdp_mode

    def test_unknown_arg_rejected(self):
        with pytest.raises(ToolError):
            parse_tdb_args(["--frobnicate"])

    def test_bad_max_hits(self):
        with pytest.raises(ToolError):
            parse_tdb_args(["-x0"])
        with pytest.raises(ToolError):
            parse_tdb_args(["-xmany"])


class TestDebuggerUnderCondor:
    def test_breakpoints_hit_and_job_completes(self, world):
        cluster, pool, trace = world
        job = pool.submit_file(tdb_submit())[0]
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        assert job.exit_code == 0
        # The debug log landed on the execution host (+ToolDaemonOutput).
        fs = cluster.host("node1").filesystem
        deadline = time.monotonic() + 15.0
        while (
            "target exited" not in fs.get("tdb.log", "")
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        log = fs["tdb.log"]
        assert "breakpoint at compute_b" in log
        assert "hit #1 at compute_b" in log
        assert "hit #2 at compute_b" in log
        assert "breakpoint at compute_b cleared" in log  # -x2
        assert "target exited with code 0" in log

    def test_stack_reported_at_stop(self, world, spawned):
        cluster, pool, trace = world
        job = pool.submit_file(tdb_submit())[0]
        job.wait_terminal(timeout=60.0)
        starter = spawned[0]
        daemon = starter._tool_handle.daemon  # type: ignore[attr-defined]
        assert daemon.reports, "no breakpoint reports captured"
        first = daemon.reports[0]
        assert first.function == "compute_b"
        assert first.stack == ["main", "compute_b"]
        assert first.hit_number == 1

    def test_same_pool_runs_both_tools(self, world):
        """One pool, two different tools, zero RM modifications."""
        cluster, pool, trace = world
        # First a debugged job...
        debugged = pool.submit_file(tdb_submit())[0]
        assert debugged.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        # ...then a profiled one through the very same startd/starter.
        profiled_text = (
            "universe = Vanilla\nexecutable = foo\narguments = 2 0.05\n"
            "output = outfile\n+SuspendJobAtExec = True\n"
            '+ToolDaemonCmd = "paradynd"\n'
            '+ToolDaemonArgs = "-zunix -l3 -a%pid"\n'
            "queue\n"
        )
        profiled = pool.submit_file(profiled_text)[0]
        assert profiled.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        # Both tools performed the same Figure 6 handshake.
        puts = trace.events(actor="starter", action="tdp_put")
        pid_puts = [e for e in puts if e.details.get("attribute") == "pid"]
        assert len(pid_puts) == 2

    def test_multiple_breakpoints(self, world, spawned):
        cluster, pool, trace = world
        job = pool.submit_file(
            tdb_submit(breakpoints=("compute_a", "write_output"))
        )[0]
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        starter = spawned[0]
        daemon = starter._tool_handle.daemon  # type: ignore[attr-defined]
        functions_hit = {r.function for r in daemon.reports}
        assert functions_hit == {"compute_a", "write_output"}

    def test_stop_ends_tdb_waiting_for_the_exit(self, world):
        """tdb waits for the exit code with no timer: a stop closes its
        session, so the wait ends though the target never exits."""
        cluster, pool, _trace = world
        job = pool.submit_file(
            "universe = Vanilla\nexecutable = spin\n+SuspendJobAtExec = True\n"
            '+ToolDaemonCmd = "tdb"\n+ToolDaemonArgs = "-a%pid"\nqueue\n'
        )[0]
        job.wait_for(JobStatus.RUNNING, timeout=30.0)
        deadline = time.monotonic() + 10.0
        while job.app_pid is None and time.monotonic() < deadline:
            time.sleep(0.01)
        process = cluster.host("node1").get_process(job.app_pid)
        while process.cpu_time == 0 and time.monotonic() < deadline:
            time.sleep(0.01)  # tdb has continued it
        time.sleep(0.1)  # and is parked in tdp_wait_exit
        tool = pool.startds["node1"].starters()[0]._tool_handle
        started = time.monotonic()
        tool.stop()
        tool.join(timeout=2.0)  # raises if tdb is still waiting
        assert time.monotonic() - started < 2.0
        pool.schedd.remove(str(job.job_id))
        assert job.wait_terminal(timeout=30.0) is JobStatus.REMOVED
