"""MPI — Section 4.3's MPI universe: rank sweep with per-rank paradynds.

For each rank count, runs a monitored MPI job and reports: every rank
attached before executing (tool coverage from instruction zero), job
correctness under monitoring, and startup latency versus ranks.  Then
the size series of the launch itself, medians over ``WARM_LAUNCHES``
warm jobs: submit -> all daemons up (whole and per rank), CPU the
process spent per job cycle, and what the simulator did meanwhile
(scheduler slices, ``mpi.lookup`` calls) — a rank waiting for a peer
should cost the simulator nothing — and how often a daemon woke on a
timer instead of being told: RM poll loops whose poll timed out, and
paradynd reads of ``proc.<pid>.status``.
"""

import sys
import time
from statistics import median

import pytest
from conftest import print_table

from repro.attrspace.client import _Session
from repro.condor.job import JobStatus
from repro.parador.run import ParadorScenario
from repro.sim.cluster import SimCluster
from repro.tdp.handle import TdpHandle
from repro.util.clock import Stopwatch

WARM_LAUNCHES = 10


def mpi_submit(scenario, executable, ranks, arguments):
    return (
        f"universe = MPI\nexecutable = {executable}\n"
        f"arguments = {arguments}\nmachine_count = {ranks}\n"
        f"output = outfile\n+SuspendJobAtExec = True\n"
        f'+ToolDaemonCmd = "paradynd"\n'
        f'+ToolDaemonArgs = "-zunix -l3 -m{scenario.submit_host} '
        f'-p{scenario.port1} -P{scenario.port2} -a%pid"\n'
        f"queue\n"
    )


@pytest.fixture
def lookups(monkeypatch):
    """Counts the ``mpi.lookup`` service calls simulated ranks make."""
    count = [0]
    call_service = SimCluster.call_service

    def tapped(self, name, proc, args):
        count[0] += name == "mpi.lookup"
        return call_service(self, name, proc, args)

    monkeypatch.setattr(SimCluster, "call_service", tapped)
    return count


@pytest.fixture
def wakes(monkeypatch):
    """``[RM poll-loop polls that timed out, paradynd status reads]``."""
    count = [0, 0]
    poll, submit = TdpHandle.poll, _Session.submit

    def tapped_poll(self, timeout=None):
        ready = poll(self, timeout)
        count[0] += not ready and sys._getframe(1).f_code.co_name == "serve"
        return ready

    def tapped_submit(self, request, complete, **kwargs):
        if self.member.startswith("paradynd/"):
            reads = [request, *request.get("ops", ())]
            count[1] += sum(
                r["op"] == "get" and str(r.get("attribute")).endswith(".status")
                for r in reads
            )
        return submit(self, request, complete, **kwargs)

    monkeypatch.setattr(TdpHandle, "poll", tapped_poll)
    monkeypatch.setattr(_Session, "submit", tapped_submit)
    return count


def warm_launch(scenario, ranks, lookups, wakes):
    """One warm job cycle: (startup s, process CPU s, slices, lookups,
    RM poll-loop timeouts, paradynd status reads)."""
    frontend, scheduler = scenario.frontend, scenario.cluster.scheduler
    seen = len(frontend.daemons())
    while any(startd.claimed for startd in scenario.pool.startds.values()):
        time.sleep(0.001)  # the previous job's machines are still being released
    slices, looked, cpu = scheduler.slices_executed, lookups[0], time.process_time()
    timeouts, reads = wakes
    with Stopwatch() as sw:
        job = scenario.pool.submit_file(
            mpi_submit(scenario, "mpi_ring", ranks, "1")
        )[0]
        sessions = frontend.wait_for_daemons(seen + ranks, timeout=120.0)[seen:]
    startup = sw.seconds
    assert job.wait_terminal(timeout=120.0) is JobStatus.COMPLETED
    for session in sessions:
        session.wait_state("exited", timeout=60.0)
    return (
        startup, time.process_time() - cpu,
        scheduler.slices_executed - slices, lookups[0] - looked,
        wakes[0] - timeouts, wakes[1] - reads,
    )


@pytest.mark.parametrize("ranks", [2, 4, 8, 16, 32])
def test_mpi_universe_rank_sweep(benchmark, ranks, lookups, wakes):
    hosts = [f"node{i}" for i in range(ranks)]
    with ParadorScenario(execute_hosts=hosts) as scenario:
        with Stopwatch() as sw:
            job = scenario.pool.submit_file(
                mpi_submit(scenario, "mpi_ring", ranks, "2")
            )[0]
            sessions = scenario.frontend.wait_for_daemons(ranks, timeout=120.0)
        startup = sw.seconds
        assert job.wait_terminal(timeout=120.0) is JobStatus.COMPLETED
        assert job.exit_code == 0
        assert len(sessions) == ranks
        assert len({(s.host, s.pid) for s in sessions}) == ranks

        for session in sessions:
            session.wait_state("exited", timeout=60.0)

        print_table(
            f"MPI universe, {ranks} ranks (mpi_ring)",
            ["metric", "value"],
            [
                ["ranks / paradynds", f"{ranks} / {len(sessions)}"],
                ["submit -> all daemons up", f"{startup:.4f}s"],
                ["job exit code", job.exit_code],
                ["all exits observed by tools",
                 all(s.exit_code == 0 for s in sessions)],
            ],
        )
        benchmark.extra_info["ranks"] = ranks

        startup, cpu, slices, looked, timeouts, reads = (
            median(series) for series in zip(*(
                warm_launch(scenario, ranks, lookups, wakes)
                for _ in range(WARM_LAUNCHES)
            ))
        )
        print_table(
            f"warm launch, {ranks} ranks (median of {WARM_LAUNCHES})",
            ["metric", "value"],
            [
                ["submit -> all daemons up", f"{startup * 1e3:.1f} ms"],
                ["  per rank", f"{startup * 1e3 / ranks:.2f} ms"],
                ["process CPU per job cycle", f"{cpu * 1e3:.1f} ms"],
                ["scheduler slices", int(slices)],
                ["mpi.lookup calls", int(looked)],
                ["RM poll-loop timeouts per rank", f"{timeouts / ranks:.1f}"],
                ["paradynd status reads per rank", f"{reads / ranks:.1f}"],
            ],
        )

        def one_more_job():
            j = scenario.pool.submit_file(
                mpi_submit(scenario, "mpi_ring", ranks, "1")
            )[0]
            assert j.wait_terminal(timeout=120.0) is JobStatus.COMPLETED

        benchmark.pedantic(one_more_job, rounds=2, iterations=1)


def test_mpi_monitored_correctness(benchmark):
    """Monitoring must not change the computation: pi comes out right."""
    import math, time

    with ParadorScenario(execute_hosts=["node0", "node1", "node2"]) as scenario:

        def run_pi():
            job = scenario.pool.submit_file(
                mpi_submit(scenario, "mpi_pi", 3, "3000")
            )[0]
            assert job.wait_terminal(timeout=120.0) is JobStatus.COMPLETED
            deadline = time.monotonic() + 10.0
            while not job.stdout_lines and time.monotonic() < deadline:
                time.sleep(0.01)
            return float(job.stdout_lines[0].split("=")[1])

        value = benchmark.pedantic(run_pi, rounds=2, iterations=1)
        assert value == pytest.approx(math.pi, abs=1e-3)
        print(f"\nmonitored mpi_pi(3000) = {value:.6f} (pi = {math.pi:.6f})")
