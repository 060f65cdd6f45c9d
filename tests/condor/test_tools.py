"""How the RM serves a tool daemon once its job has exited."""

import threading
import time

import pytest

from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.condor import tools
from repro.condor.tools import ThreadToolHandle, serve_until_ended
from repro.sim.cluster import SimCluster
from repro.tdp.api import tdp_init
from repro.tdp.handle import Role
from repro.tdp.process import SimHostBackend


class Daemon:
    """Ends after ``ends_after`` seconds or when told to (``finish``), or
    when stopped if ``obeys_stop``."""

    def __init__(self, obeys_stop: bool = True, ends_after: float = 60.0):
        self.finish = threading.Event()
        self.obeys_stop = obeys_stop
        self.ends_after = ends_after
        self.woken = 0

    def run(self, stop_event):
        deadline = time.monotonic() + self.ends_after
        while not self.finish.is_set() and time.monotonic() < deadline:
            if self.obeys_stop and stop_event.is_set():
                return
            self.finish.wait(0.01)

    def wake(self):
        self.woken += 1


@pytest.fixture
def rm():
    with SimCluster.flat(["node1"]) as cluster:
        lass = AttributeSpaceServer(cluster.transport, "node1", role=ServerRole.LASS)
        handle = tdp_init(
            cluster.transport, lass.endpoint, member="rm", role=Role.RM,
            backend=SimHostBackend(cluster.host("node1")), context="job1",
        )
        yield handle
        handle.close()
        lass.stop()


@pytest.fixture
def short_graces(monkeypatch):
    monkeypatch.setattr(tools, "TOOL_GRACE", 0.3)
    monkeypatch.setattr(tools, "TOOL_STOP_GRACE", 0.3)


def test_a_tool_that_ends_is_served_to_its_end_and_not_stopped(rm, short_graces):
    daemon = Daemon(ends_after=0.1)
    tool = ThreadToolHandle("tool", daemon)
    polls = []
    poll = rm.poll
    rm.poll = lambda timeout=None: (polls.append(timeout), poll(timeout))[-1]
    start = time.monotonic()
    serve_until_ended(rm, tool)
    assert tool.ended and daemon.woken == 0
    assert time.monotonic() - start < 0.3
    assert polls and set(polls) == {None}


def test_a_tool_still_running_after_its_grace_is_stopped(rm, short_graces):
    daemon = Daemon()
    tool = ThreadToolHandle("tool", daemon)
    start = time.monotonic()
    serve_until_ended(rm, tool)
    assert tool.ended and daemon.woken == 1
    assert 0.3 <= time.monotonic() - start < 0.6


def test_a_tool_that_will_not_stop_is_left_after_both_graces(rm, short_graces):
    daemon = Daemon(obeys_stop=False)
    tool = ThreadToolHandle("tool", daemon)
    start = time.monotonic()
    serve_until_ended(rm, tool)
    assert not tool.ended and daemon.woken == 1
    assert 0.6 <= time.monotonic() - start < 1.2
    daemon.finish.set()
    tool.join(timeout=5.0)
    assert tool.ended


def test_on_end_after_the_end_runs_at_once():
    daemon = Daemon()
    tool = ThreadToolHandle("tool", daemon)
    daemon.finish.set()
    tool.join(timeout=5.0)
    called = []
    tool.on_end(lambda: called.append(True))
    assert called == [True]
