"""A process's lifetime on a host: zombie until its job is cleaned up.

An exited process stays findable by pid, and its exit code readable,
until the RM that created it cleans up the job and reaps it — the
starter for a job's application, the MPI coordinator for a gang's ranks.
From then on its pid is unknown to the host.
"""

import threading

import pytest

from repro.condor.job import TERMINAL, JobStatus
from repro.condor.mpi_universe import MpiUniverseCoordinator
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
    size = 4
    hosts = [f"node{i}" for i in range(size)]
    found = []  # per rank: (host, pid, process), read once all ranks exited
    jobs = []
    cleaned = threading.Event()
    wait_all_exited = MpiUniverseCoordinator.wait_all_exited
    cleanup = MpiUniverseCoordinator.cleanup

    def checked_wait(self, handle, timeout=None):
        code = wait_all_exited(self, handle, timeout=timeout)
        assert jobs[0].status not in TERMINAL
        for host, pid in self._rank_pids.values():
            found.append((host, pid, self._cluster.host(host).get_process(pid)))
        return code

    def recorded_cleanup(self):
        cleanup(self)
        cleaned.set()

    monkeypatch.setattr(MpiUniverseCoordinator, "wait_all_exited", checked_wait)
    monkeypatch.setattr(MpiUniverseCoordinator, "cleanup", recorded_cleanup)
    with ParadorScenario(execute_hosts=hosts) as scenario:
        jobs.extend(scenario.pool.submit_file(
            f"universe = MPI\nexecutable = mpi_ring\narguments = 1\n"
            f"machine_count = {size}\n+SuspendJobAtExec = True\n"
            f'+ToolDaemonCmd = "paradynd"\n'
            f'+ToolDaemonArgs = "-zunix -l3 -m{scenario.submit_host} '
            f'-p{scenario.port1} -P{scenario.port2} -a%pid"\nqueue\n'
        ))
        assert jobs[0].wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        assert sorted(host for host, _pid, _proc in found) == hosts
        assert not [proc for _h, _p, proc in found if proc.alive]
        assert cleaned.wait(timeout=30.0)
        for host, pid, _proc in found:
            assert not scenario.cluster.host(host).has_process(pid)
