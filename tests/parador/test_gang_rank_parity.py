"""A gang rank gets everything a vanilla job gets.

Every rank of an MPI job is launched the way a vanilla job is: its
stdout reaches the job's output file through the job's relay, and its
input files are staged to its own host before it starts.  (The
disseminated attributes and the RM's proxy in every rank's context are
covered by the CASS-mode and firewalled gang tests.)
"""

import time

import pytest

from repro.condor.job import JobStatus
from repro.condor.pool import CondorPool
from repro.sim.cluster import SimCluster

HOSTS = ["node1", "node2", "node3"]


def mpi_hello(argv):
    """Every rank says which it is, then meets the others at a barrier."""
    from repro.mpisim.comm import MpiComm
    from repro.sim import syscalls as sc
    from repro.sim.syscalls import call

    def body():
        comm = yield from MpiComm.init()
        yield sc.Print(f"hello from rank {comm.rank} of {comm.size}")
        yield from comm.barrier()

    yield from call("main", body())


@pytest.fixture
def world():
    with SimCluster.flat(["submit", *HOSTS]) as cluster:
        cluster.registry.register("mpi_hello", mpi_hello)
        with CondorPool(
            cluster, submit_host="submit", execute_hosts=HOSTS
        ) as pool:
            yield cluster, pool


def gang_text(extra=""):
    return (
        "universe = MPI\nexecutable = mpi_hello\n"
        f"machine_count = {len(HOSTS)}\noutput = hello.out\n{extra}queue\n"
    )


def test_every_ranks_stdout_reaches_the_output_file(world):
    cluster, pool = world
    job = pool.submit_file(gang_text())[0]
    assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
    submit_fs = cluster.host("submit").filesystem
    expected = {f"hello from rank {r} of {len(HOSTS)}" for r in range(len(HOSTS))}
    deadline = time.monotonic() + 10.0
    while (
        set(submit_fs.get("hello.out", "").splitlines()) != expected
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    assert set(submit_fs.get("hello.out", "").splitlines()) == expected


def test_input_files_land_on_every_ranks_host(world):
    cluster, pool = world
    cluster.host("submit").filesystem["ring.cfg"] = "peers 3\n"
    job = pool.submit_file(gang_text("transfer_input_files = ring.cfg\n"))[0]
    assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
    staged = {host: cluster.host(host).filesystem.get("ring.cfg") for host in HOSTS}
    assert staged == {host: "peers 3\n" for host in HOSTS}
