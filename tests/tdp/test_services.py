"""Tests for TDP's supporting services: stdio, staging, proxy config
and auxiliary services."""

import threading

import pytest

from repro.errors import FirewallBlockedError, StagingError
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.net.address import Endpoint
from repro.sim.cluster import SimCluster
from repro.tdp.api import tdp_create_process, tdp_init
from repro.tdp.files import FileStager
from repro.tdp.handle import Role
from repro.tdp.process import SimHostBackend
from repro.tdp.proxycfg import (
    connect_to_frontend,
    frontend_endpoint,
    proxy_endpoint,
    publish_frontend_endpoint,
    publish_proxy_endpoint,
)
from repro.tdp.stdio import StdioCollector, StdioRelay
from repro.tdp.wellknown import Attr
from repro.transport.proxy import ProxyServer
from repro.util.sync import WaitableQueue
from tests.served import ServedListener


class TestStdio:
    def test_stdout_reaches_collector(self, cluster, lass, rm_handle):
        collector = StdioCollector(cluster.transport, "submit")
        info = tdp_create_process(rm_handle, "hello", ["stdio"],)
        proc = cluster.host("node1").get_process(info.pid)
        relay = StdioRelay(
            cluster.transport, "node1", collector.endpoint,
            feed_stdin=proc.feed_stdin, close_stdin=proc.close_stdin,
        )
        # add_stdout_sink replays already-printed lines, so even a job
        # that finished before the relay attached loses nothing.
        proc.add_stdout_sink(relay.forward_stdout)
        assert collector.wait_line(timeout=10.0) == "hello, stdio"
        relay.close()
        collector.close()

    def test_stdin_roundtrip(self, cluster, lass, rm_handle):
        collector = StdioCollector(cluster.transport, "submit")
        from repro.tdp.wellknown import CreateMode

        info = tdp_create_process(
            rm_handle, "echo_stdin", mode=CreateMode.PAUSED
        )
        proc = cluster.host("node1").get_process(info.pid)
        relay = StdioRelay(
            cluster.transport, "node1", collector.endpoint,
            feed_stdin=proc.feed_stdin, close_stdin=proc.close_stdin,
        )
        proc.add_stdout_sink(relay.forward_stdout)
        proc.continue_process()
        collector.send_stdin("ping")
        assert collector.wait_line(timeout=10.0) == "echo: ping"
        collector.send_eof()
        assert proc.wait_for_exit(timeout=10.0) == 0
        relay.close()
        collector.close()

    def test_stdin_buffered_before_relay_connects(self, cluster):
        # Lines sent before the relay dials in must not be lost.
        collector = StdioCollector(cluster.transport, "submit")
        collector.send_stdin("early")
        lines = WaitableQueue()
        relay = StdioRelay(
            cluster.transport, "node1", collector.endpoint,
            feed_stdin=lines.put, close_stdin=lambda: None,
        )
        assert lines.get(timeout=5.0) == "early"
        relay.close()
        collector.close()


    def test_a_relay_that_feeds_no_stdin_starts_no_thread(self, cluster, monkeypatch):
        collector = StdioCollector(cluster.transport, "submit")
        started = []
        start = threading.Thread.start

        def tapped(thread):
            started.append(thread.name)
            return start(thread)

        with monkeypatch.context() as tap:
            tap.setattr(threading.Thread, "start", tapped)
            relay = StdioRelay(cluster.transport, "node1", collector.endpoint)
        assert started == []
        relay.forward_stdout("out only")
        assert collector.wait_line(timeout=10.0) == "out only"
        relay.close()
        collector.close()

    def test_every_relay_ships_stdout_and_the_first_takes_stdin(self, cluster):
        """An MPI job's ranks each relay their stdout; stdin goes to rank
        0's relay, the first to dial in."""
        collector = StdioCollector(cluster.transport, "submit")
        fed = WaitableQueue()
        first = StdioRelay(
            cluster.transport, "node1", collector.endpoint,
            feed_stdin=fed.put, close_stdin=lambda: None,
        )
        second = StdioRelay(cluster.transport, "node1", collector.endpoint)
        second.forward_stdout("from the second")
        first.forward_stdout("from the first")
        assert {collector.wait_line(timeout=10.0) for _ in range(2)} == {
            "from the first", "from the second",
        }
        collector.send_stdin("to rank 0")
        assert fed.get(timeout=10.0) == "to rank 0"
        second.close()  # a worker's relay ending leaves the stream open
        first.forward_stdout("still here")
        assert collector.wait_line(timeout=10.0) == "still here"
        first.close()
        collector.close()


class TestFileStaging:
    def test_stage_in_then_out(self, cluster):
        stager = FileStager(cluster)
        cluster.host("submit").filesystem["paradyn.rc"] = "option foo\n"
        records = stager.stage_in("submit", "node1", ["paradyn.rc"])
        assert cluster.host("node1").filesystem["paradyn.rc"] == "option foo\n"
        assert records[0].direction == "in"

        cluster.host("node1").filesystem["trace.0"] = "evt1\nevt2\n"
        cluster.host("node1").filesystem["trace.1"] = "evt3\n"
        out = stager.stage_out("node1", "submit", ["trace.*"])
        assert {r.path for r in out} == {"trace.0", "trace.1"}
        assert cluster.host("submit").filesystem["trace.0"] == "evt1\nevt2\n"

    def test_missing_input_raises(self, cluster):
        stager = FileStager(cluster)
        with pytest.raises(StagingError):
            stager.stage_in("submit", "node1", ["nope.cfg"])

    def test_missing_literal_output_raises(self, cluster):
        stager = FileStager(cluster)
        with pytest.raises(StagingError):
            stager.stage_out("node1", "submit", ["summary.dat"])

    def test_empty_glob_is_ok(self, cluster):
        stager = FileStager(cluster)
        assert stager.stage_out("node1", "submit", ["trace.*"]) == []

    def test_transfer_accounting(self, cluster):
        stager = FileStager(cluster)
        cluster.host("submit").filesystem["a"] = "xxxx"
        stager.stage_in("submit", "node1", ["a"])
        assert stager.bytes_transferred() == 4
        assert len(stager.transfer_log("in")) == 1
        assert stager.transfer_log("out") == []


class TestProxyConfig:
    @pytest.fixture
    def firewalled_cluster(self):
        with SimCluster.with_private_nodes(
            ["submit", "gateway"], ["node1"], gateway_pinholes=[("gateway", 9000)]
        ) as c:
            yield c

    def test_endpoints_via_attribute_space(self, cluster, lass, rm_handle):
        publish_frontend_endpoint(rm_handle, Endpoint("submit", 2090))
        assert frontend_endpoint(rm_handle) == Endpoint("submit", 2090)
        assert proxy_endpoint(rm_handle) is None
        publish_proxy_endpoint(rm_handle, Endpoint("gateway", 9000))
        assert proxy_endpoint(rm_handle) == Endpoint("gateway", 9000)

    def test_tool_reaches_frontend_through_proxy(self, firewalled_cluster):
        c = firewalled_cluster
        lass = AttributeSpaceServer(c.transport, "node1", role=ServerRole.LASS)
        rm = tdp_init(
            c.transport, lass.endpoint, member="starter", role=Role.RM,
            backend=SimHostBackend(c.host("node1")),
        )
        rt = tdp_init(
            c.transport, lass.endpoint, member="paradynd", role=Role.RT,
            src_host="node1",
        )
        # Front-end listener on the submit host.
        frontend_listener = ServedListener(c.transport.listen("submit", 2090))
        proxy = ProxyServer(c.transport, "gateway", 9000)
        publish_frontend_endpoint(rm, Endpoint("submit", 2090))
        publish_proxy_endpoint(rm, proxy.endpoint)

        # Direct connect is blocked; connect_to_frontend transparently
        # falls back to the proxy.
        with pytest.raises(FirewallBlockedError):
            c.transport.connect("node1", Endpoint("submit", 2090))
        channel = connect_to_frontend(rt, c.transport, "node1")
        server_side = frontend_listener.next_end()
        channel.send({"hello": "frontend"})
        assert server_side.recv(timeout=5.0) == {"hello": "frontend"}
        channel.close()
        server_side.close()
        proxy.stop()
        frontend_listener.close()
        rm.close()
        rt.close()
        lass.stop()


class TestAuxServices:
    def test_manager_launches_and_publishes(self, cluster, lass, rm_handle):
        from repro.tdp.aux import AuxServiceManager, AuxServiceSpec

        listener_box = {}

        def start():
            listener_box["l"] = cluster.transport.listen("node1")
            return listener_box["l"].endpoint

        manager = AuxServiceManager(rm_handle)
        ep = manager.launch(AuxServiceSpec(name="mcast", start=start))
        assert rm_handle.attrs.try_get(Attr.aux_endpoint("mcast")) == str(ep)
        assert rm_handle.attrs.try_get(Attr.aux_status("mcast")) == "running"
        assert manager.running() == ["mcast"]
        manager.stop_all()
        assert rm_handle.attrs.try_get(Attr.aux_status("mcast")) == "stopped"
        listener_box["l"].close()

    def test_reduction_network_aggregates(self):
        from repro.tdp.aux import ReductionNetwork

        hosts = [f"n{i}" for i in range(6)]
        with SimCluster.flat(["root"] + hosts) as c:
            net = ReductionNetwork(c.transport, "root", hosts, fanout=2)
            net.start_collection(expected_contributions=6)
            for i, h in enumerate(hosts):
                net.contribute(h, float(i + 1))
            total, count = net.wait_result(timeout=10.0)
            assert count == 6
            assert total == pytest.approx(21.0)
            net.stop()

