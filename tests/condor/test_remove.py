"""condor_rm tests: removing queued and running jobs."""

import threading
import time

import pytest

from repro.condor.job import JobStatus
from repro.condor.pool import CondorPool
from repro.condor.schedd import Schedd
from repro.condor.submit import SubmitDescription
from repro.errors import ResourceManagerError
from repro.sim.cluster import SimCluster
from repro.util.log import TraceRecorder


@pytest.fixture
def world():
    with SimCluster.flat(["submit", "node1"]) as cluster:
        pool = CondorPool(cluster, submit_host="submit", execute_hosts=["node1"])
        yield cluster, pool
        pool.stop()


class TestRemove:
    def test_remove_running_job(self, world):
        cluster, pool = world
        job = pool.submit_description(SubmitDescription(executable="spin"))
        job.wait_for(JobStatus.RUNNING, timeout=30.0)
        deadline = time.monotonic() + 10.0
        while job.app_pid is None and time.monotonic() < deadline:
            time.sleep(0.01)
        proc = cluster.host("node1").get_process(job.app_pid)
        pool.schedd.remove(str(job.job_id))
        assert job.wait_terminal(timeout=30.0) is JobStatus.REMOVED
        assert not proc.alive

    def test_remove_idle_job(self, world):
        _cluster, pool = world
        pool.schedd.RETRY_INTERVAL = 1.0
        job = pool.submit_description(
            SubmitDescription(executable="hello",
                              requirements="TARGET.Memory >= 10**9")
        )
        # Give the first (failing) placement attempt a moment.
        time.sleep(0.05)
        pool.schedd.remove(str(job.job_id))
        assert job.status is JobStatus.REMOVED

    def test_machine_released_after_remove(self, world):
        _cluster, pool = world
        job = pool.submit_description(SubmitDescription(executable="spin"))
        job.wait_for(JobStatus.RUNNING, timeout=30.0)
        deadline = time.monotonic() + 10.0
        while job.app_pid is None and time.monotonic() < deadline:
            time.sleep(0.01)
        pool.schedd.remove(str(job.job_id))
        job.wait_terminal(timeout=30.0)
        deadline = time.monotonic() + 10.0
        while pool.matchmaker.reserved_count() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool.matchmaker.reserved_count() == 0
        # The freed machine accepts the next job.
        job2 = pool.submit_description(SubmitDescription(executable="hello"))
        assert job2.wait_terminal(timeout=30.0) is JobStatus.COMPLETED

    def test_remove_monitored_job_tool_observes_kill(self):
        from repro.parador.run import ParadorScenario

        with ParadorScenario(execute_hosts=["node1"]) as scenario:
            run = scenario.submit_monitored("spin", "")
            run.job.wait_for(JobStatus.RUNNING, timeout=30.0)
            run.session.wait_state("running", timeout=30.0)
            scenario.pool.schedd.remove(str(run.job.job_id))
            assert run.job.wait_terminal(timeout=30.0) is JobStatus.REMOVED
            run.session.wait_state("exited", timeout=30.0)
            assert run.session.exit_code == 128 + 15  # the tool saw the kill


def mpi_blocked_after_barrier(argv):
    """Every rank meets the others at a barrier, then waits for good."""
    from repro.mpisim.comm import MpiComm
    from repro.sim import syscalls as sc
    from repro.sim.syscalls import call

    def body():
        comm = yield from MpiComm.init()
        yield from comm.barrier()
        yield sc.Print(f"rank {comm.rank} past the barrier")
        yield from comm.recv((comm.rank + 1) % comm.size, tag="never")

    yield from call("main", body())


class TestRemoveMpiJob:
    """condor_rm of a running gang kills every rank, not rank 0 alone:
    the others would wait for it for good, the job sitting RUNNING with
    every machine claimed."""

    HOSTS = ["node1", "node2", "node3"]

    @pytest.fixture
    def gang(self):
        with SimCluster.flat(["submit", *self.HOSTS]) as cluster:
            cluster.registry.register("mpi_blocked", mpi_blocked_after_barrier)
            pool = CondorPool(cluster, submit_host="submit", execute_hosts=self.HOSTS)
            yield cluster, pool
            pool.stop()

    def submit(self, pool):
        return pool.submit_file(
            "universe = MPI\nexecutable = mpi_blocked\nmachine_count = 3\nqueue\n"
        )[0]

    def ranks(self, cluster):
        return [
            proc for host in self.HOSTS
            for proc in cluster.host(host).processes()
            if proc.executable == "mpi_blocked"
        ]

    def assert_removed_and_released(self, ranks, pool, job):
        """``ranks``: the gang's processes, taken while the job was live
        (its cleanup reaps them)."""
        assert job.wait_terminal(timeout=8.0) is JobStatus.REMOVED
        assert len(ranks) == 3
        assert not [p for p in ranks if p.alive]
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and (
            pool.matchmaker.reserved_count()
            or any(s.claimed for s in pool.startds.values())
        ):
            time.sleep(0.01)
        assert pool.matchmaker.reserved_count() == 0
        assert not any(s.claimed for s in pool.startds.values())

    def test_remove_kills_every_rank_and_frees_every_machine(self, gang):
        cluster, pool = gang
        job = self.submit(pool)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not (
            len(self.ranks(cluster)) == 3
            and all(p.stdout_lines for p in self.ranks(cluster))
        ):
            time.sleep(0.01)
        ranks = self.ranks(cluster)
        assert [len(p.stdout_lines) for p in ranks] == [1, 1, 1]
        pool.schedd.remove(str(job.job_id))
        self.assert_removed_and_released(ranks, pool, job)

    def test_a_rank_created_after_the_remove_dies_too(self, gang, monkeypatch):
        from repro.condor import mpi_universe

        cluster, pool = gang
        jobs, ranks = [], []
        create = mpi_universe.tdp_create_process

        def remove_before_the_last_rank(*args, env, **kwargs):
            if env["MPI_RANK"] == "2":
                pool.schedd.remove(str(jobs[0].job_id))
            info = create(*args, env=env, **kwargs)
            ranks.append(cluster.host(info.host).get_process(info.pid))
            return info

        monkeypatch.setattr(
            mpi_universe, "tdp_create_process", remove_before_the_last_rank
        )
        jobs.append(self.submit(pool))
        self.assert_removed_and_released(ranks, pool, jobs[0])


class TestRemoveFinishedJob:
    """A finished job has left the queue, as condor_q shows it: condor_rm,
    hold, release and attach find no such job, and its terminal state
    stays as it ended."""

    @pytest.fixture
    def pool(self):
        with SimCluster.flat(["submit", "node1"]) as cluster:
            trace = TraceRecorder()
            with CondorPool(
                cluster, submit_host="submit", execute_hosts=["node1"], trace=trace
            ) as pool:
                yield pool, trace

    def finished_job(self, pool):
        job = pool.submit_description(SubmitDescription(executable="hello"))
        assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
        assert job.exit_code == 0
        return str(job.job_id), job

    def assert_gone(self, pool, trace, job_id, job):
        for verb in (pool.schedd.remove, pool.schedd.hold, pool.schedd.release,
                     pool.schedd.job):
            with pytest.raises(ResourceManagerError, match="no such job"):
                verb(job_id)
        with pytest.raises(ResourceManagerError, match="no such job"):
            pool.schedd.attach_tool(job_id, "paradynd", "-a%pid")
        assert job.status is JobStatus.COMPLETED and job.exit_code == 0
        assert trace.events(action="job_removed") == []
        assert job not in pool.schedd.jobs()

    def test_after_its_claim_is_released(self, pool):
        pool, trace = pool
        job_id, job = self.finished_job(pool)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and (
            pool.matchmaker.reserved_count() or pool.startds["node1"].claimed
        ):
            time.sleep(0.01)
        assert not pool.startds["node1"].claimed
        self.assert_gone(pool, trace, job_id, job)

    def test_before_its_claim_is_released(self, pool, monkeypatch):
        """The release worker has not run yet: the finished starter still
        holds the claim, and is not asked to kill anything."""
        pool, trace = pool
        released = threading.Event()
        release_job = Schedd._release_job

        def held_release(self, job_id):
            released.wait(timeout=30.0)
            release_job(self, job_id)

        monkeypatch.setattr(Schedd, "_release_job", held_release)
        job_id, job = self.finished_job(pool)
        assert pool.startds["node1"].claimed
        try:
            self.assert_gone(pool, trace, job_id, job)
        finally:
            released.set()
