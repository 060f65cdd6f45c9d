"""The RM answers its tool's end.

The starter created its rank's tool daemon, so it learns of the tool's
end the way a parent learns of a child's.  A tool that dies before its
rank has exited must not take the rank with it: the rank runs on under
the RM to its exit, and a tool that failed is published as
``fault.<cmd>/<context>``.  Every wait here is bounded; a job that hangs
fails its test.
"""

import threading

import pytest

from repro.condor.job import JobStatus
from repro.condor.pool import CondorPool
from repro.condor.submit import SubmitDescription, ToolDaemonSpec
from repro.condor.tools import ThreadToolHandle, ToolRegistry
from repro.errors import ToolError
from repro.mpisim.programs import register_mpi_programs
from repro.paradyn.dyninst import DyninstEngine
from repro.sim.cluster import SimCluster
from repro.sim.process import ProcessState
from repro.tdp.api import tdp_attach, tdp_detach, tdp_exit, tdp_get, tdp_init
from repro.tdp.handle import Role
from repro.tdp.wellknown import Attr

HOSTS = ["node1", "node2"]


class Tool:
    """A tool daemon that does ``steps`` against its rank's process (a
    callable step is called) and ends: raising when ``crash`` is set,
    cleanly otherwise.  With ``workers_only`` rank 0's copy attaches,
    detaches and ends cleanly."""

    def __init__(self, ctx, steps, *, crash=True, workers_only=False):
        self.ctx, self.steps, self.crash = ctx, steps, crash
        if workers_only and ".r" not in ctx.context:
            self.steps, self.crash = ("attach", "detach"), False

    def run(self, stop_event):
        ctx = self.ctx
        handle = tdp_init(
            ctx.transport, ctx.lass_endpoint, member=f"tool/{ctx.context}",
            role=Role.RT, context=ctx.context, src_host=ctx.host,
        )
        try:
            pid = int(tdp_get(handle, Attr.PID, timeout=10.0))
            for step in self.steps:
                if step == "attach":
                    tdp_attach(handle, pid)
                elif step == "detach":
                    tdp_detach(handle, pid)
                elif step == "breakpoint":
                    process = ctx.extras["sim_host"].get_process(pid)
                    DyninstEngine(process).insert_breakpoint("main")
                else:
                    step()
        finally:
            tdp_exit(handle)
        if self.crash:
            raise ToolError("the tool died")

    def wake(self):
        pass


class Pool:
    """A pool whose startds' LASSes are tapped: every attribute put in
    any job's context is recorded."""

    def __init__(self, monkeypatch, cluster, pool):
        self.cluster, self.pool = cluster, pool
        self.puts = []  # (context, attribute, value)
        self.faulted = threading.Event()
        for startd in pool.startds.values():
            subscriptions = startd.lass.store.subscriptions
            publish = subscriptions.publish

            def tap(notification, publish=publish):
                if notification.kind == "put":
                    self.puts.append(
                        (notification.context, notification.attribute, notification.value)
                    )
                    if notification.attribute.startswith("fault."):
                        self.faulted.set()
                publish(notification)

            monkeypatch.setattr(subscriptions, "publish", tap)

    def run(self, name, steps, **options):
        """Submit a job under tool ``name`` and see it complete with exit 0;
        its id."""
        job = self.submit(name, steps, **options)
        assert job.wait_terminal(timeout=20.0) is JobStatus.COMPLETED
        assert job.exit_code == 0
        return str(job.job_id)

    def submit(self, name, steps, *, executable="hello", machines=1, **tool):
        self.pool.tools.register(
            name, lambda ctx: ThreadToolHandle(name, Tool(ctx, steps, **tool))
        )
        desc = SubmitDescription(
            executable=executable,
            universe="mpi" if machines > 1 else "vanilla",
            machine_count=machines,
            suspend_job_at_exec=True,
            tool_daemon=ToolDaemonSpec(cmd=name),
        )
        return self.pool.submit_description(desc)

    def faults(self):
        return {
            attribute: value
            for _context, attribute, value in self.puts
            if attribute.startswith("fault.")
        }


@pytest.fixture
def pool(monkeypatch):
    with SimCluster.flat(["submit", *HOSTS]) as cluster:
        register_mpi_programs(cluster.registry)
        with CondorPool(
            cluster, submit_host="submit", execute_hosts=HOSTS, tool_registry=ToolRegistry()
        ) as pool:
            yield Pool(monkeypatch, cluster, pool)


def test_a_tool_that_dies_after_its_attach_leaves_the_job_to_complete(pool):
    job = pool.run("dies", ["attach"])
    [(attribute, value)] = pool.faults().items()
    assert attribute == Attr.fault(f"dies/{job}")
    assert value == "rt:the tool died"


def test_a_worker_ranks_dead_tool_leaves_the_gang_to_complete(pool):
    job = pool.run("dies", ["attach"], executable="mpi_ring", machines=2, workers_only=True)
    assert pool.faults() == {Attr.fault(f"dies/{job}.r1"): "rt:the tool died"}


def test_a_tool_that_dies_after_its_main_breakpoint_leaves_the_rank_to_exit(pool):
    """The probe goes with its dead tracer: the resumed rank runs past
    ``main`` instead of stopping there for good."""
    job = pool.run("dies", ["attach", "breakpoint"], executable="phases")
    assert list(pool.faults()) == [Attr.fault(f"dies/{job}")]


def test_a_tool_that_ends_cleanly_without_attaching_is_no_fault(pool):
    """Its rank, created paused for it, is let run."""
    pool.run("idle", [], crash=False)
    assert pool.faults() == {}


def test_a_held_rank_stays_held_when_its_tool_dies(pool):
    """condor_hold is the RM's own stop: the dead tool's rank is detached
    but not resumed, and runs to its exit once released."""
    attached, go = threading.Event(), threading.Event()
    job = pool.submit("dies", ["attach", attached.set, lambda: go.wait(10.0)])
    assert attached.wait(timeout=10.0)
    job.wait_for(JobStatus.RUNNING, timeout=10.0)
    job_id = str(job.job_id)
    pool.pool.schedd.hold(job_id)
    go.set()
    assert pool.faulted.wait(timeout=10.0)  # the RM has answered the end
    process = pool.cluster.host(job.machines[0]).get_process(job.app_pid)
    with process.lock:
        assert process.state is ProcessState.STOPPED and process.tracer is None
    pool.pool.schedd.release(job_id)
    assert job.wait_terminal(timeout=20.0) is JobStatus.COMPLETED
    assert job.exit_code == 0
