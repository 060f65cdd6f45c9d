"""Simulated-MPI tests: runtime, collectives, workloads."""

import math
import sys
import threading
import time

import pytest

from repro.errors import MpiError, RankError
from repro.mpisim.comm import MpiComm
from repro.mpisim.programs import register_mpi_programs
from repro.mpisim.runtime import MpiRuntime
from repro.sim import syscalls as sc
from repro.sim.cluster import SimCluster
from repro.sim.process import ProcessState


def create_rank(cluster, job_id, executable, rank, size, argv=(), host=None,
                **kwargs):
    host = host or f"n{rank % len(cluster.hosts())}"
    return cluster.host(host).create_process(
        executable, list(argv),
        env={"MPI_JOB": job_id, "MPI_RANK": str(rank), "MPI_SIZE": str(size)},
        **kwargs,
    )


def launch_job(cluster, runtime, job_id, executable, size, argv=None, hosts=None):
    """Create all ranks of one MPI job directly (no batch system)."""
    runtime.create_job(job_id, size)
    return [
        create_rank(
            cluster, job_id, executable, rank, size, argv or (),
            host=hosts[rank % len(hosts)] if hosts else None,
        )
        for rank in range(size)
    ]


def anysource(argv):
    """Rank 0 sends to the last rank, then takes one any-source message
    from every other rank and prints what it got; the others answer."""

    def body():
        comm = yield from MpiComm.init()
        last = comm.size - 1
        if comm.rank == 0:
            yield from comm.send(last, "go")
            got = []
            for _ in range(comm.size - 1):
                got.append((yield from comm.recv()))
            yield sc.Print(repr(sorted(got)))
        else:
            if comm.rank == last:
                yield from comm.recv(0)
            yield from comm.send(0, f"from-{comm.rank}")

    yield from sc.call("main", body())


@pytest.fixture
def service_calls(monkeypatch):
    """Every ``Service`` syscall made: (name, args)."""
    calls = []
    call_service = SimCluster.call_service

    def tapped(self, name, proc, args):
        calls.append((name, dict(args)))
        return call_service(self, name, proc, args)

    monkeypatch.setattr(SimCluster, "call_service", tapped)
    return calls


@pytest.fixture
def world():
    with SimCluster.flat([f"n{i}" for i in range(4)]) as cluster:
        register_mpi_programs(cluster.registry)
        runtime = MpiRuntime(cluster)
        yield cluster, runtime


class TestRuntime:
    def test_rank_registration(self, world):
        cluster, runtime = world
        procs = launch_job(cluster, runtime, "j1", "mpi_ring", 3, ["1"])
        for p in procs:
            assert p.wait_for_exit(timeout=30.0) == 0
        ranks = runtime.ranks("j1")
        assert sorted(ranks) == [0, 1, 2]
        assert runtime.all_registered("j1")

    def test_duplicate_job_rejected(self, world):
        _cluster, runtime = world
        runtime.create_job("dup", 2)
        with pytest.raises(MpiError):
            runtime.create_job("dup", 2)

    def test_unknown_job_rejected(self, world):
        _cluster, runtime = world
        with pytest.raises(MpiError):
            runtime.ranks("ghost")

    def test_master_hook_fires_on_rank0_init(self, world):
        cluster, runtime = world
        events = []
        runtime.create_job("j2", 2)
        runtime.on_master_init("j2", lambda info: events.append(info.rank))
        host = cluster.host("n0")
        env = {"MPI_JOB": "j2", "MPI_RANK": "0", "MPI_SIZE": "2"}
        # rank 1 first: hook must NOT fire
        host.create_process(
            "mpi_ring", ["1"], env={**env, "MPI_RANK": "1"}
        )
        import time

        time.sleep(0.05)
        assert events == []
        master = host.create_process("mpi_ring", ["1"], env=env)
        deadline = time.monotonic() + 10.0
        while not events and time.monotonic() < deadline:
            time.sleep(0.005)
        assert events == [0]
        for p in host.processes():
            p.wait_for_exit(timeout=30.0)

    def test_master_hook_after_registration_fires_immediately(self, world):
        cluster, runtime = world
        procs = launch_job(cluster, runtime, "j3", "mpi_ring", 2, ["1"])
        for p in procs:
            p.wait_for_exit(timeout=30.0)
        events = []
        runtime.on_master_init("j3", lambda info: events.append(info.rank))
        assert events == [0]


    def test_end_job_forgets_the_job(self, world):
        cluster, runtime = world
        procs = launch_job(cluster, runtime, "done", "mpi_ring", 2, ["1"])
        for p in procs:
            assert p.wait_for_exit(timeout=30.0) == 0
        runtime.end_job("done")
        runtime.end_job("done")  # unknown by now: a no-op
        assert runtime._jobs == {}
        with pytest.raises(MpiError):
            runtime.ranks("done")
        runtime.create_job("done", 2)  # the id is free again

    def test_the_last_holder_drops_the_table(self, world):
        """Each rank's starter holds the gang's table from its launch to
        its cleanup, in any order; the table goes with the last, and not
        before.  Stressed: 16 threads join and let go 500 times each under
        a 10 µs switch interval, beside the creator's hold."""
        _cluster, runtime = world
        runtime.create_job("held", 17)
        errors = []
        together = threading.Barrier(16)

        def churn():
            together.wait(timeout=10.0)
            try:
                for _ in range(500):
                    runtime.join_job("held")
                    runtime.ranks("held")  # still there while held
                    runtime.end_job("held")
            except MpiError as e:  # a lost update dropped it early
                errors.append(e)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn, daemon=True) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert "held" in runtime._jobs  # the creator still holds it
        runtime.end_job("held")
        assert runtime._jobs == {}
        with pytest.raises(MpiError):
            runtime.join_job("held")


class TestLatePeer:
    """A rank whose peer has not registered parks until the peer's
    ``mpi.init`` tells it; it does not poll."""

    def lookups(self, service_calls, rank):
        return [
            args for name, args in service_calls
            if name == "mpi.lookup" and args["rank"] == rank
        ]

    def test_waiting_rank_costs_one_lookup_and_no_cpu(self, world, service_calls):
        cluster, runtime = world
        runtime.create_job("late", 2)
        slices, cpu = cluster.scheduler.slices_executed, time.process_time()
        waiter = create_rank(cluster, "late", "mpi_ring", 0, 2, ["1"])
        time.sleep(0.1)
        assert waiter.state is ProcessState.BLOCKED
        assert cluster.scheduler.slices_executed - slices <= 3
        assert time.process_time() - cpu < 0.02
        peer = create_rank(cluster, "late", "mpi_ring", 1, 2, ["1"])
        assert waiter.wait_for_exit(timeout=30.0) == 0
        assert peer.wait_for_exit(timeout=30.0) == 0
        assert waiter.stdout_lines == ["token=2"]
        assert len(self.lookups(service_calls, 1)) == 1

    def test_one_init_wakes_every_waiter(self, world, service_calls):
        cluster, runtime = world
        runtime.create_job("two", 3)
        # each worker's barrier starts with a send to rank 0
        waiters = [
            create_rank(cluster, "two", "mpi_imbalanced", rank, 3, ["0"])
            for rank in (1, 2)
        ]
        for w in waiters:
            w.wait_for_state(ProcessState.BLOCKED, timeout=10.0)
        master = create_rank(cluster, "two", "mpi_imbalanced", 0, 3, ["0"])
        for p in (master, *waiters):
            assert p.wait_for_exit(timeout=30.0) == 0
        assert len(self.lookups(service_calls, 0)) == 2
        assert [n for n, _a in service_calls].count("mpi.init") == 3

    def test_waiter_stopped_by_a_tool_completes_once_continued(self, world):
        cluster, runtime = world
        runtime.create_job("held", 2)
        waiter = create_rank(cluster, "held", "mpi_imbalanced", 1, 2, ["0"])
        waiter.wait_for_state(ProcessState.BLOCKED, timeout=10.0)
        waiter.request_stop()
        master = create_rank(cluster, "held", "mpi_imbalanced", 0, 2, ["0"])
        # rank 0 registers, then waits in the barrier for rank 1
        master.wait_for_state(ProcessState.BLOCKED, timeout=10.0)
        assert waiter.state is ProcessState.STOPPED
        assert [m.tag for m in waiter.mailbox] == ["mpi.up.0"]
        waiter.continue_process()
        assert waiter.wait_for_exit(timeout=30.0) == 0
        assert master.wait_for_exit(timeout=30.0) == 0

    def test_any_source_recv_never_sees_the_rendezvous(self, world):
        cluster, runtime = world
        runtime.create_job("any", 3)
        first = create_rank(cluster, "any", anysource, 0, 3)
        second = create_rank(cluster, "any", anysource, 1, 3)
        assert second.wait_for_exit(timeout=30.0) == 0
        # rank 1's message is already in the mailbox rank 0 is parked on
        assert first.state is ProcessState.BLOCKED
        assert [m.tag for m in first.mailbox] == ["mpi.pt2pt.1"]
        last = create_rank(cluster, "any", anysource, 2, 3)
        for p in (first, last):
            assert p.wait_for_exit(timeout=30.0) == 0
        assert first.stdout_lines == ["[(1, 'from-1'), (2, 'from-2')]"]

    def test_lookup_without_wait_is_a_plain_miss(self, world):
        cluster, runtime = world
        runtime.create_job("peek", 2)
        asker = create_rank(cluster, "peek", "mpi_ring", 0, 2, ["1"], paused=True)
        ask = {"job": "peek", "rank": 1}
        assert cluster.call_service("mpi.lookup", asker, ask) is None
        peer = create_rank(cluster, "peek", "mpi_ring", 1, 2, ["1"])
        peer.wait_for_state(ProcessState.BLOCKED, timeout=10.0)
        assert asker.mailbox == []  # nobody was booked, nothing was sent
        found = cluster.call_service("mpi.lookup", asker, ask)
        assert (found["host"], found["pid"]) == (peer.host.name, peer.pid)
        peer.terminate()

    def test_waiter_killed_before_its_peer_registers(self, world):
        cluster, runtime = world
        runtime.create_job("rm", 2)
        waiter = create_rank(cluster, "rm", "mpi_imbalanced", 1, 2, ["0"])
        waiter.wait_for_state(ProcessState.BLOCKED, timeout=10.0)
        waiter.terminate()
        master = create_rank(cluster, "rm", "mpi_imbalanced", 0, 2, ["0"])
        master.wait_for_state(ProcessState.BLOCKED, timeout=10.0)
        assert sorted(runtime.ranks("rm")) == [0, 1]
        with runtime._lock:
            assert runtime._jobs["rm"].waiters == {}  # the dead one is let go
        assert waiter.mailbox == []
        master.terminate()

    def test_waiting_on_a_rank_outside_the_job_faults(self, world):
        cluster, runtime = world
        runtime.create_job("wide", 1)
        asker = create_rank(cluster, "wide", "mpi_ring", 0, 1, ["1"], paused=True)
        with pytest.raises(RankError):
            cluster.call_service(
                "mpi.lookup", asker, {"job": "wide", "rank": 5, "wait": True}
            )


class TestWorkloads:
    def test_ring_token_count(self, world):
        cluster, runtime = world
        procs = launch_job(cluster, runtime, "ring", "mpi_ring", 4, ["3"])
        for p in procs:
            assert p.wait_for_exit(timeout=30.0) == 0
        # 3 laps around 4 ranks: token incremented 4 times per lap.
        assert procs[0].stdout_lines == ["token=12"]

    def test_pi_estimate(self, world):
        cluster, runtime = world
        procs = launch_job(cluster, runtime, "pi", "mpi_pi", 4, ["2000"])
        for p in procs:
            assert p.wait_for_exit(timeout=60.0) == 0
        [line] = procs[0].stdout_lines
        value = float(line.split("=")[1])
        assert value == pytest.approx(math.pi, abs=1e-3)

    def test_pi_single_rank(self, world):
        cluster, runtime = world
        procs = launch_job(cluster, runtime, "pi1", "mpi_pi", 1, ["500"])
        procs[0].wait_for_exit(timeout=30.0)
        value = float(procs[0].stdout_lines[0].split("=")[1])
        assert value == pytest.approx(math.pi, abs=1e-2)

    def test_imbalanced_cpu_pattern(self, world):
        cluster, runtime = world
        procs = launch_job(cluster, runtime, "imb", "mpi_imbalanced", 3, ["0.1"])
        for p in procs:
            assert p.wait_for_exit(timeout=60.0) == 0
        cpus = [p.cpu_time for p in procs]
        # CPU grows with rank: 0.1, 0.2, 0.3 (plus epsilon syscall costs).
        assert cpus[0] < cpus[1] < cpus[2]
        assert cpus[2] == pytest.approx(0.3, rel=0.2)

    def test_ranks_spread_across_hosts(self, world):
        cluster, runtime = world
        hosts = ["n0", "n1", "n2", "n3"]
        launch_job(cluster, runtime, "spread", "mpi_ring", 4, ["1"], hosts=hosts)
        for host in hosts:
            for p in cluster.host(host).processes():
                assert p.wait_for_exit(timeout=30.0) == 0
        ranks = runtime.ranks("spread")
        assert {info.host for info in ranks.values()} == set(hosts)


class TestErrors:
    def test_rank_out_of_range_faults(self, world):
        cluster, runtime = world
        runtime.create_job("bad", 2)
        proc = cluster.host("n0").create_process(
            "mpi_ring", ["1"],
            env={"MPI_JOB": "bad", "MPI_RANK": "7", "MPI_SIZE": "2"},
        )
        assert proc.wait_for_exit(timeout=30.0) == 139

    def test_missing_rank_env_faults(self, world):
        cluster, runtime = world
        runtime.create_job("noenv", 1)
        proc = cluster.host("n0").create_process(
            "mpi_ring", ["1"], env={"MPI_JOB": "noenv"}
        )
        assert proc.wait_for_exit(timeout=30.0) == 139
