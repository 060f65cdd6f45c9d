"""TdpHandle unit tests: one session, one descriptor per handle."""

import pathlib
import threading
import time

import pytest

import repro.tdp.handle
from repro.attrspace.client import AttributeSpaceClient
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.condor.job import JobStatus
from repro.errors import FirewallBlockedError
from repro.net.topology import Network
from repro.parador.run import ParadorScenario
from repro.sim.cluster import SimCluster
from repro.tdp.api import (
    tdp_continue_process,
    tdp_create_process,
    tdp_init,
    tdp_subscribe,
)
from repro.tdp.handle import Role
from repro.tdp.process import SimHostBackend
from repro.tdp.wellknown import CreateMode
from repro.util.log import TraceRecorder


@pytest.fixture
def world():
    with SimCluster.flat(["node1"]) as cluster:
        lass = AttributeSpaceServer(cluster.transport, "node1", role=ServerRole.LASS)
        yield cluster, lass
        lass.stop()


def wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def thread_names():
    return [t.name for t in threading.enumerate()]


class TestOneSessionPerHandle:
    def test_starter_session_holds_no_receive_thread(self):
        """Thread census while a monitored job sits at ``main``: the
        starter's handle is one session (the CASS is read through the
        startd's, not one of the job's own), and no session holds a
        receive thread — each frame is routed on the thread that sent it."""
        with ParadorScenario(
            execute_hosts=["node1"], use_cass=True, auto_run=False,
            trace=TraceRecorder(),
        ) as scenario:
            run = scenario.submit_monitored("foo", "2 0.05")
            run.session.wait_state("at_main", timeout=30.0)
            assert scenario.trace.first("disseminate") is not None
            assert wait_until(
                lambda: not any("disseminate" in n for n in thread_names())
            )
            assert [n for n in thread_names() if n.startswith("attr-client-")] == []
            run.session.cmd_run()
            assert run.job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED

    def test_parked_poll_wakes_on_the_queue_condition(self, world):
        cluster, lass = world
        handle = tdp_init(
            cluster.transport, lass.endpoint, member="poller", role=Role.RT,
            src_host="node1", context="job1",
        )
        tdp_subscribe(handle, "k", lambda n, a: None)
        woke = []

        def parked():
            started = time.monotonic()
            woke.append((handle.poll(timeout=5.0), time.monotonic() - started))

        poller = threading.Thread(target=parked)
        poller.start()
        time.sleep(0.2)  # let it park
        assert not woke
        channel = cluster.transport.connect("node1", lass.endpoint)
        with AttributeSpaceClient(channel, context="job1", member="putter") as putter:
            putter.put("k", "v")
        poller.join(timeout=5.0)
        assert not poller.is_alive()
        (available, waited), = woke
        assert available and waited < 2.0
        assert handle.service_events() == 1
        handle.close()
        source = pathlib.Path(repro.tdp.handle.__file__).read_text()
        assert "sleep" not in source

    def test_starter_without_a_route_to_the_cass_still_runs_the_job(self):
        """A private node whose firewall has no pinhole for the CASS:
        dissemination is best-effort, so the pilot-mode job (front-end
        ports on the command line) completes without it."""
        net = Network()
        net.add_zone("campus")
        zone = net.add_private_zone("cluster", allow_outbound=True)
        net.add_host("submit", "campus")
        net.add_host("node1", "cluster")
        zone.inbound.allow(src="submit")
        with SimCluster(net) as cluster, ParadorScenario(
            execute_hosts=["node1"], cluster=cluster,
            trace=TraceRecorder(clock=cluster.clock),
        ) as scenario:
            cass = scenario.pool.schedd.cass
            zone.outbound.deny(dst="submit", port=cass.endpoint.port)
            with pytest.raises(FirewallBlockedError):
                cluster.transport.connect("node1", cass.endpoint)
            run = scenario.submit_monitored("hello", "x")
            assert run.job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
            assert scenario.trace.first("tdp_put") is not None
            assert scenario.trace.first("disseminate") is None


class TestServiceLoop:
    @pytest.fixture
    def rm(self, world):
        """An RM handle running its service loop, with its
        ``service_events`` calls counted."""
        cluster, lass = world
        handle = tdp_init(
            cluster.transport, lass.endpoint, member="rm", role=Role.RM,
            backend=SimHostBackend(cluster.host("node1")), context="job1",
        )
        passes = []
        service_events = handle.service_events
        handle.service_events = lambda: passes.append(1) or service_events()
        handle.start_service_loop()
        (thread,) = [t for t in threading.enumerate() if t.name == "tdp-service-rm"]
        yield handle, thread, passes
        handle.close()

    def test_idle_loop_does_not_wake(self, rm):
        handle, thread, passes = rm
        time.sleep(0.2)
        assert len(passes) <= 1
        started = time.monotonic()
        handle.stop_service_loop()
        assert not thread.is_alive()
        assert time.monotonic() - started < 1.0

    def test_loop_ends_when_its_session_fails(self, rm, world):
        """A failed session closes the event queue, after which ``poll``
        returns at once: the loop must end, not spin until stopped."""
        handle, thread, passes = rm
        _cluster, lass = world
        lass.stop()
        thread.join(timeout=2.0)
        assert not thread.is_alive()
        assert handle.lass.events.closed
        assert len(passes) < 10
        handle.stop_service_loop()  # nothing left to stop


class TestServeUntilExit:
    @pytest.fixture
    def rm_rt(self, world):
        cluster, lass = world
        rm = tdp_init(
            cluster.transport, lass.endpoint, member="rm", role=Role.RM,
            backend=SimHostBackend(cluster.host("node1")), context="job1",
        )
        rt = tdp_init(
            cluster.transport, lass.endpoint, member="rt", role=Role.RT,
            src_host="node1", context="job1",
        )
        yield rm, rt
        rt.close()
        rm.close()

    def test_tool_requests_answered_on_the_waiting_thread(self, rm_rt, monkeypatch):
        """The thread that waits for the process answers its tool, and
        returns the exit code once the exit has woken it: no service
        thread, no timer."""
        rm, rt = rm_rt
        answered = []
        on_request = rm.control._on_request
        monkeypatch.setattr(rm.control, "_on_request", lambda *a: (
            answered.append(threading.current_thread().name), on_request(*a)
        ))
        rm.control.serve_tool_requests()
        info = tdp_create_process(rm, "hello", ["x"], mode=CreateMode.PAUSED)
        polls, parked = [], threading.Event()
        poll = rm.poll
        rm.poll = lambda timeout=None: (
            polls.append(timeout), parked.set(), poll(timeout)
        )[-1]

        def continue_once_parked():
            assert parked.wait(timeout=5.0)
            tdp_continue_process(rt, info.pid)

        tool = threading.Thread(target=continue_once_parked, name="tool")
        tool.start()
        assert rm.serve_until_exit(info.pid) == 0
        tool.join(timeout=5.0)
        assert not tool.is_alive()
        assert answered and set(answered) == {threading.current_thread().name}
        assert polls and set(polls) == {None}
        assert not [n for n in thread_names() if n.startswith("tdp-service-")]

    def test_failed_session_falls_back_to_waiting(self, rm_rt, world):
        rm, _rt = rm_rt
        cluster, lass = world
        info = tdp_create_process(rm, "hello", ["x"], mode=CreateMode.PAUSED)
        lass.stop()
        assert wait_until(lambda: rm.lass.events.closed)
        cluster.host("node1").get_process(info.pid).continue_process()
        assert rm.serve_until_exit(info.pid) == 0


class TestRepr:
    def test_repr_readable(self, world):
        cluster, lass = world
        handle = tdp_init(
            cluster.transport, lass.endpoint, member="me", role=Role.RT,
            src_host="node1",
        )
        assert "me" in repr(handle) and "rt" in repr(handle)
        handle.close()
        assert "closed" in repr(handle)
