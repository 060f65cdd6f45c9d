"""Paradyn front-end unit tests (daemon registry, series, commands)."""

import threading
import time

import pytest

from repro.errors import ChannelClosedError, GetTimeoutError
from repro.paradyn.frontend import ParadynFrontend
from repro.paradyn.metrics import Metric
from repro.sim.cluster import SimCluster


@pytest.fixture
def world():
    with SimCluster.flat(["submit", "node1"]) as cluster:
        frontend = ParadynFrontend(cluster.transport, "submit")
        yield cluster, frontend
        frontend.stop()


def connect_fake_daemon(cluster, frontend, *, pid=1000, job="1.0"):
    """Speak the daemon side of the front-end protocol by hand."""
    channel = cluster.transport.connect("node1", frontend.endpoint)
    channel.send(
        {
            "op": "hello",
            "job": job,
            "host": "node1",
            "pid": pid,
            "executable": "foo",
            "functions": ["main", "compute_b"],
        }
    )
    return channel


class TestDaemonRegistry:
    def test_hello_registers_session(self, world):
        cluster, frontend = world
        channel = connect_fake_daemon(cluster, frontend)
        [session] = frontend.wait_for_daemons(1, timeout=10.0)
        assert session.pid == 1000
        assert session.executable == "foo"
        assert "compute_b" in session.functions
        channel.close()

    def test_wait_for_daemons_timeout(self, world):
        _cluster, frontend = world
        with pytest.raises(GetTimeoutError):
            frontend.wait_for_daemons(1, timeout=0.05)

    def test_non_hello_first_message_dropped(self, world):
        cluster, frontend = world
        channel = cluster.transport.connect("node1", frontend.endpoint)
        channel.send({"op": "sample", "metric": "x"})
        with pytest.raises(GetTimeoutError):
            frontend.wait_for_daemons(1, timeout=0.2)
        channel.close()

    def test_multiple_daemons_ordered_ids(self, world):
        cluster, frontend = world
        channels = [
            connect_fake_daemon(cluster, frontend, pid=1000 + i, job=f"{i}.0")
            for i in range(3)
        ]
        sessions = frontend.wait_for_daemons(3, timeout=10.0)
        assert [s.daemon_id for s in sessions] == [1, 2, 3]
        for c in channels:
            c.close()


class TestSeries:
    def test_samples_accumulate(self, world):
        cluster, frontend = world
        channel = connect_fake_daemon(cluster, frontend)
        [session] = frontend.wait_for_daemons(1, timeout=10.0)
        for t, v in [(0.0, 0.1), (1.0, 0.5), (2.0, 0.9)]:
            channel.send(
                {"op": "sample", "metric": "proc_cpu",
                 "focus": "node1:1000", "time": t, "value": v}
            )
        import time

        deadline = time.monotonic() + 5.0
        while session.latest("proc_cpu") != 0.9 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert session.latest("proc_cpu") == 0.9
        channel.close()

    def test_function_focus_filter(self, world):
        cluster, frontend = world
        channel = connect_fake_daemon(cluster, frontend)
        [session] = frontend.wait_for_daemons(1, timeout=10.0)
        channel.send({"op": "sample", "metric": "cpu_fraction",
                      "focus": "node1:1000/compute_b", "time": 1.0, "value": 0.8})
        channel.send({"op": "sample", "metric": "cpu_fraction",
                      "focus": "node1:1000/main", "time": 1.0, "value": 1.0})
        import time

        deadline = time.monotonic() + 5.0
        while session.latest("cpu_fraction", "compute_b") is None and (
            time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert session.latest("cpu_fraction", "compute_b") == 0.8
        assert session.latest("cpu_fraction", "main") == 1.0
        channel.close()

    def test_app_state_transitions(self, world):
        cluster, frontend = world
        channel = connect_fake_daemon(cluster, frontend)
        [session] = frontend.wait_for_daemons(1, timeout=10.0)
        channel.send({"op": "app_state", "state": "at_main"})
        assert session.wait_state("at_main", timeout=10.0) == "at_main"
        channel.send({"op": "app_exited", "code": 3})
        assert session.wait_state("exited", timeout=10.0) == "exited"
        assert session.exit_code == 3
        channel.close()


class TestCommands:
    def test_commands_reach_daemon(self, world):
        cluster, frontend = world
        channel = connect_fake_daemon(cluster, frontend)
        [session] = frontend.wait_for_daemons(1, timeout=10.0)
        session.cmd_run()
        session.cmd_enable_metric(Metric.CALL_COUNT, "compute_b")
        session.cmd_kill()
        received = [channel.recv(timeout=5.0) for _ in range(3)]
        assert [m["op"] for m in received] == [
            "cmd_run", "cmd_enable_metric", "cmd_kill",
        ]
        assert received[1]["function"] == "compute_b"
        channel.close()

    def test_closed_session_drops_its_connection(self, world):
        cluster, frontend = world
        channel = connect_fake_daemon(cluster, frontend)
        [session] = frontend.wait_for_daemons(1, timeout=10.0)
        channel.send({"op": "app_exited", "code": 0})
        channel.send({"op": "bye"})
        channel.close()
        deadline = time.monotonic() + 5.0
        while session.channel is not None and time.monotonic() < deadline:
            time.sleep(0.005)
        assert session.channel is None
        # the session stays, with what it recorded
        assert frontend.daemons() == [session]
        assert session.app_state == "exited" and session.exit_code == 0
        for command in (
            session.cmd_run,
            session.cmd_kill,
            lambda: session.cmd_enable_metric(Metric.CALL_COUNT, None),
        ):
            with pytest.raises(ChannelClosedError):
                command()
