"""A process's lifetime on a host: zombie until its job is cleaned up.

An exited process stays findable by pid, and its exit code readable,
until the RM that created it cleans up the job and reaps it — the
starter of the job's application, or of the gang's rank on that machine.
From then on its pid is unknown to the host.
"""

import threading

import pytest

from repro.condor.job import JobStatus
from repro.condor.pool import CondorPool
from repro.condor.starter import Starter
from repro.condor.submit import SubmitDescription
from repro.errors import NoSuchProcessError
from repro.parador.run import ParadorScenario
from repro.sim.cluster import SimCluster
from repro.tdp.process import SimHostBackend


class TestReap:
    def test_an_exited_process_is_found_until_reaped(self):
        with SimCluster.flat(["node1"]) as cluster:
            host = cluster.host("node1")
            proc = host.create_process("hello")
            assert proc.wait_for_exit(timeout=10.0) == 0
            assert host.get_process(proc.pid) is proc
            assert SimHostBackend(host).wait_exit(proc.pid, timeout=1.0) == 0
            host.reap(proc.pid)
            assert not host.has_process(proc.pid)
            with pytest.raises(NoSuchProcessError):
                host.get_process(proc.pid)
            host.reap(proc.pid)  # a second reap is a no-op

    def test_a_living_process_is_not_reaped(self):
        with SimCluster.flat(["node1"]) as cluster:
            host = cluster.host("node1")
            proc = host.create_process("spin", paused=True)
            host.reap(proc.pid)
            assert host.get_process(proc.pid) is proc
            proc.terminate(9)


def test_a_job_process_lives_until_its_job_is_cleaned_up(monkeypatch):
    seen = []  # (starter, process, its exit code) read as cleanup begins
    cleanup = Starter._cleanup

    def checked_cleanup(self):
        backend = SimHostBackend(self._host)
        seen.append((self, self._host.get_process(self.app_pid),
                     backend.wait_exit(self.app_pid, timeout=1.0)))
        cleanup(self)

    monkeypatch.setattr(Starter, "_cleanup", checked_cleanup)
    with SimCluster.flat(["submit", "node1"]) as cluster:
        with CondorPool(cluster, submit_host="submit", execute_hosts=["node1"]) as pool:
            job = pool.submit_description(SubmitDescription(executable="hello"))
            assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
            [(starter, proc, code)] = seen
            starter.wait(timeout=30.0)
            assert proc.pid == job.app_pid and not proc.alive and code == 0
            with pytest.raises(NoSuchProcessError):
                cluster.host("node1").get_process(job.app_pid)


def test_gang_ranks_live_until_the_job_is_cleaned_up(monkeypatch):
    """Each rank's own starter holds its process until it cleans up."""
    size = 4
    hosts = [f"node{i}" for i in range(size)]
    seen = []  # per rank: (starter, process, its exit code) read as cleanup begins
    cleaned = []
    all_cleaned = threading.Event()
    cleanup = Starter._cleanup

    def checked_cleanup(self):
        backend = SimHostBackend(self._host)
        seen.append((self, self._host.get_process(self.app_pid),
                     backend.wait_exit(self.app_pid, timeout=1.0)))
        cleanup(self)
        cleaned.append(self)
        if len(cleaned) == size:
            all_cleaned.set()

    monkeypatch.setattr(Starter, "_cleanup", checked_cleanup)
    with ParadorScenario(execute_hosts=hosts) as scenario:
        job = scenario.pool.submit_file(
            f"universe = MPI\nexecutable = mpi_ring\narguments = 1\n"
            f"machine_count = {size}\n+SuspendJobAtExec = True\n"
            f'+ToolDaemonCmd = "paradynd"\n'
            f'+ToolDaemonArgs = "-zunix -l3 -m{scenario.submit_host} '
            f'-p{scenario.port1} -P{scenario.port2} -a%pid"\nqueue\n'
        )[0]
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        assert all_cleaned.wait(timeout=30.0)
        assert sorted(starter.rank for starter, _proc, _code in seen) == list(range(size))
        for starter, proc, code in seen:
            assert starter._host.name == hosts[starter.rank]
            assert not proc.alive and code == 0
            assert not starter._host.has_process(proc.pid)
        (master,) = [proc for starter, proc, _code in seen if starter.rank == 0]
        assert master.pid == job.app_pid
