"""The pool's footprint is its live jobs.

A pool launches job after job.  What a finished job leaves behind is
its ``JobRecord`` (held by the submitter) and the front end's record of
its daemon, without the daemon's closed connection; its starter leaves
with its claim, its processes are reaped when the job is cleaned up,
and a pool built without a trace keeps no event of it.  So after a
warm-up the counts of per-job objects stay flat however many jobs
follow.  Counted with obs off: the process's flight ring keeps up to
its capacity of events whatever the launches leave.
"""

import gc
import threading
import time
from collections import Counter

import pytest

from repro import obs
from repro.attrspace.client import AttributeSpaceClient
from repro.condor.job import JobStatus
from repro.condor.starter import Starter
from repro.parador.run import ParadorScenario, monitored_submit_text
from repro.sim.process import SimProcess
from repro.tdp.handle import TdpHandle
from repro.transport.inmem import _InMemChannel
from repro.util.clock import WallClock
from repro.util.log import TraceEvent

COUNTED = (
    Starter, SimProcess, TdpHandle, AttributeSpaceClient, TraceEvent,
    _InMemChannel, threading.Thread,
)
PER_JOB_THREADS = (
    "shadow-", "stdio-collect-", "stdio-relay-", "starter-", "paradynd-", "mpi-",
)


@pytest.fixture(autouse=True)
def obs_off():
    was = obs.enabled()
    obs.set_enabled(False)
    yield
    obs.set_enabled(was)


def census():
    """Live objects of each counted class, and of every class together."""
    gc.collect()
    objects = gc.get_objects()
    counts = Counter()
    for obj in objects:
        if isinstance(obj, COUNTED):
            kind = threading.Thread if isinstance(obj, threading.Thread) else type(obj)
            counts[kind.__name__] += 1
    return counts, len(objects)


def closed_connections_held():
    """Connections already closed but not yet let go of: a server that
    has not yet handled a close, a worker that has not yet returned from
    the teardown that closed it.  None once a pool is quiet: its
    long-lived connections are open."""
    gc.collect()
    return sum(
        1 for obj in gc.get_objects()
        if isinstance(obj, _InMemChannel) and obj.closed
    )


def settle(scenario):
    """Wait until no claim, reservation, per-job thread or closed
    connection is left."""
    pool = scenario.pool
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and (
        pool.matchmaker.reserved_count()
        or any(s.claimed for s in pool.startds.values())
        or any(t.name.startswith(PER_JOB_THREADS) for t in threading.enumerate())
        or closed_connections_held()
    ):
        time.sleep(0.005)


def launch(scenario, text, ranks):
    """Submit, wait for every daemon and for the job to end cleanly."""
    seen = len(scenario.frontend.daemons())
    job = scenario.pool.submit_file(text)[0]
    sessions = scenario.frontend.wait_for_daemons(seen + ranks, timeout=60.0)[seen:]
    assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
    for session in sessions:
        session.wait_state("exited", timeout=30.0)
    assert job.exit_code == 0 and [s.exit_code for s in sessions] == [0] * ranks


def assert_flat(scenario, text, *, ranks, warm, runs):
    # The process's one wall-timer thread starts with its first timer
    # (a schedd parking a job, in whichever launch that falls, if any):
    # start it now, so the census counts only what launches leave.
    WallClock().call_later(0.0, lambda: None)
    for _ in range(warm):
        launch(scenario, text, ranks)
    settle(scenario)
    before, objects_before = census()
    for _ in range(runs):
        launch(scenario, text, ranks)
    settle(scenario)
    after, objects_after = census()
    per_launch = (objects_after - objects_before) / runs
    assert after == before, (
        f"{runs} launches grew {dict(after - before)}; "
        f"{per_launch:.0f} objects retained per launch"
    )
    for startd in scenario.pool.startds.values():
        assert not startd.claimed and startd.starters() == []
    for host in scenario.cluster.hosts():
        assert [p for p in host.processes() if not p.alive] == []
    print(f"objects retained per launch: {per_launch:.0f}")


def test_monitored_launches_leave_nothing_behind():
    # One machine: a machine's first job dials the host's CASS session,
    # which lives as long as its startd, so every machine must be warm.
    with ParadorScenario(execute_hosts=["node1"]) as scenario:
        text = monitored_submit_text(
            "foo", "3 0.05", frontend_host=scenario.submit_host,
            port1=scenario.port1, port2=scenario.port2,
        )
        assert_flat(scenario, text, ranks=1, warm=40, runs=200)


def test_gang_launches_leave_nothing_behind():
    size = 8
    with ParadorScenario(execute_hosts=[f"node{i}" for i in range(size)]) as scenario:
        text = (
            f"universe = MPI\nexecutable = mpi_ring\narguments = 1\n"
            f"machine_count = {size}\n+SuspendJobAtExec = True\n"
            f'+ToolDaemonCmd = "paradynd"\n'
            f'+ToolDaemonArgs = "-zunix -l3 -m{scenario.submit_host} '
            f'-p{scenario.port1} -P{scenario.port2} -a%pid"\nqueue\n'
        )
        assert_flat(scenario, text, ranks=size, warm=5, runs=20)
