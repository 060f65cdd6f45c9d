"""The gang's hand-offs: each rank's starter on its own claimed machine,
the shadow keeping the gang.

A worker rank's starter waits for the shadow's ``run``, which rank 0's
``mpi.init`` releases.  A gang that ends before then — condor_rm, or a
rank that could not be activated — must end every starter, create no
rank, and give back every claim and reservation.  So must one that ends
between the workers' activations and rank 0's: the startd keeps a kill
that comes before its claim's activation.
"""

import sys
import threading

import pytest

from repro.condor.job import JobStatus
from repro.condor.mpi_universe import RankLaunch
from repro.condor.pool import CondorPool
from repro.condor.starter import Starter
from repro.mpisim.runtime import MpiRuntime
from repro.sim.cluster import SimCluster
from repro.transport.faultinject import FaultInjectTransport, FaultPlan
from repro.util.log import TraceRecorder

HOSTS = ["node1", "node2", "node3"]


def mpi_held_before_init(argv):
    """Rank 0 waits for good before it calls ``mpi.init``."""
    from repro.mpisim.comm import MpiComm
    from repro.sim import syscalls as sc
    from repro.sim.syscalls import call

    def body():
        yield sc.RecvMsg("never")
        yield from MpiComm.init()

    yield from call("main", body())


class Gang:
    """A pool of three machines, its starters and its releases, seen as
    they happen."""

    def __init__(self, monkeypatch, cluster, pool):
        self.cluster, self.pool = cluster, pool
        self.starters = []
        self.waiting = threading.Semaphore(0)
        self.released = threading.Event()
        start, await_run = Starter.start, RankLaunch.await_run

        def started(starter):
            start(starter)
            self.starters.append(starter)

        def awaiting(launch, channel):
            if launch.rank:
                self.waiting.release()
            return await_run(launch, channel)

        monkeypatch.setattr(Starter, "start", started)
        monkeypatch.setattr(RankLaunch, "await_run", awaiting)
        release_job = pool.schedd._release_job

        def release(job_id):
            release_job(job_id)
            self.released.set()

        pool.schedd._release_job = release

    def submit(self, executable):
        return self.pool.submit_file(
            f"universe = MPI\nexecutable = {executable}\narguments = 1\n"
            f"machine_count = {len(HOSTS)}\nqueue\n"
        )[0]

    def assert_all_given_back(self):
        """Every starter ended, every claim and reservation released,
        nothing of the gang running or remembered."""
        assert self.released.wait(timeout=10.0)
        for starter in self.starters:
            starter.wait(timeout=10.0)
        pool = self.pool
        assert not any(startd.claimed for startd in pool.startds.values())
        assert pool.matchmaker.reserved_count() == 0
        assert self.cluster.total_process_count(alive_only=True) == 0
        assert MpiRuntime.ensure(self.cluster)._jobs == {}


@pytest.fixture
def gang(monkeypatch):
    with SimCluster.flat(["submit", *HOSTS]) as cluster:
        cluster.registry.register("mpi_held", mpi_held_before_init)
        with CondorPool(
            cluster, submit_host="submit", execute_hosts=HOSTS, trace=TraceRecorder()
        ) as pool:
            yield Gang(monkeypatch, cluster, pool)


def test_remove_before_rank_0_runs_ends_the_waiting_starters(gang):
    job = gang.submit("mpi_held")
    job.wait_for(JobStatus.RUNNING, timeout=10.0)
    for _ in HOSTS[1:]:
        assert gang.waiting.acquire(timeout=10.0)
    gang.pool.schedd.remove(str(job.job_id))
    assert job.wait_terminal(timeout=10.0) is JobStatus.REMOVED
    gang.assert_all_given_back()
    assert sorted(starter.rank for starter in gang.starters) == [0, 1, 2]
    # no worker rank was created: only rank 0 ever was
    trace = gang.pool.trace
    assert trace.events(actor=f"mpi-coord/{job.job_id}", action="tdp_create_process") == []
    assert len(trace.events(actor="starter", action="tdp_create_process")) == 1


def test_a_worker_whose_activation_is_refused_fails_the_job(gang):
    for startd in gang.pool.startds.values():
        activate = startd._activate_claim

        def refusing(request, activate=activate):
            if request.get("rank") == 2:
                return {"ok": False, "error": "activation refused"}
            return activate(request)

        startd._activate_claim = refusing
    job = gang.submit("mpi_ring")
    assert job.wait_terminal(timeout=10.0) is JobStatus.FAILED
    assert job.failure_reason == "rank 2 could not be started: activation refused"
    gang.assert_all_given_back()
    # rank 0 is activated last: only rank 1's starter was spawned
    assert [starter.rank for starter in gang.starters] == [1]


def test_remove_before_rank_0_is_activated_creates_nothing(gang):
    schedd = gang.pool.schedd
    rpc = schedd._startd_rpc

    def removing_first(endpoint, message):
        if message.get("op") == "activate_claim" and message.get("rank") == 0:
            # the workers are activated and wait; rank 0 has no starter yet
            schedd.remove(message["job_id"])
        return rpc(endpoint, message)

    schedd._startd_rpc = removing_first
    job = gang.submit("mpi_held")
    assert job.wait_terminal(timeout=10.0) is JobStatus.REMOVED
    gang.assert_all_given_back()
    assert sorted(starter.rank for starter in gang.starters) == [0, 1, 2]
    assert gang.pool.trace.events(action="tdp_create_process") == []


def test_a_failure_before_rank_0_is_activated_creates_nothing(gang, monkeypatch):
    await_run = RankLaunch.await_run
    monkeypatch.setattr(
        RankLaunch, "await_run",
        lambda launch, channel: launch.rank != 1 and await_run(launch, channel),
    )
    schedd = gang.pool.schedd
    rpc = schedd._startd_rpc
    killed, cond = set(), threading.Condition()

    def killed_first(endpoint, message):
        if message.get("op") == "activate_claim" and message.get("rank") == 0:
            # rank 1's starter ended without a report: the shadow's kill
            # of the gang reaches rank 0's claim before its activation
            with cond:
                assert cond.wait_for(lambda: message["claim_id"] in killed, 10.0)
        answer = rpc(endpoint, message)
        if message.get("op") == "kill_job":
            with cond:
                killed.add(message["claim_id"])
                cond.notify_all()
        return answer

    schedd._startd_rpc = killed_first
    job = gang.submit("mpi_held")
    assert job.wait_terminal(timeout=10.0) is JobStatus.FAILED
    assert job.failure_reason == "rank 1's starter ended without a report"
    gang.assert_all_given_back()
    assert sorted(starter.rank for starter in gang.starters) == [0, 1, 2]
    assert gang.pool.trace.events(action="tdp_create_process") == []


def test_a_worker_that_cannot_reach_the_shadow_fails_the_job(gang, monkeypatch):
    start = Starter.start

    def severed(starter):
        if starter.rank == 2:
            # its hello, the first send on its first channel, is cut
            starter._transport = FaultInjectTransport(
                starter._transport, FaultPlan(script={(0, 0): "sever"})
            )
        start(starter)

    monkeypatch.setattr(Starter, "start", severed)
    job = gang.submit("mpi_ring")
    assert job.wait_terminal(timeout=10.0) is JobStatus.FAILED
    assert job.failure_reason.startswith(
        "rank 2 could not be started: cannot reach the shadow"
    )
    gang.assert_all_given_back()
    assert [starter.rank for starter in gang.starters] == [1]


def test_a_kill_always_ends_the_wait_for_run():
    """A kill racing a worker's wait for ``run`` never leaves it parked:
    it finds the kill latched, or the kill closes the channel it waits
    on.  Stressed under a 10 µs switch interval, 200 races."""
    from repro.condor.submit import SubmitDescription
    from repro.condor.tools import ToolRegistry
    from repro.net.address import Endpoint
    from repro.transport.inmem import _InMemChannel

    desc = SubmitDescription(universe="mpi", executable="mpi_ring", machine_count=2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(200):
            launch = RankLaunch(
                transport=None, host=None, lass_endpoint=Endpoint("node1", 1),
                job_id="1.0", rank=1, description=desc,
                tool_registry=ToolRegistry(),
            )
            starter_end, _shadow_end = _InMemChannel.pair("node1", "submit")
            result = []
            waiter = threading.Thread(
                target=lambda: result.append(launch.await_run(starter_end)),
                daemon=True,
            )
            killer = threading.Thread(target=launch.kill, daemon=True)
            waiter.start()
            killer.start()
            for thread in (waiter, killer):
                thread.join(timeout=5.0)
                assert not thread.is_alive()
            assert result == [False]
    finally:
        sys.setswitchinterval(interval)
