"""Regression tests for the liveness bugs fixed alongside the fault work:

* a timed-out client RPC used to leak its pending-table entry forever;
* a TCP channel whose socket write failed did not latch itself closed,
  so every later send poked the dead socket again.
"""

import time

import pytest

from repro import errors
from repro.attrspace.client import AttributeSpaceClient
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.net.topology import flat_network
from repro.transport.faultinject import FaultInjectTransport, FaultPlan
from repro.transport.inmem import InMemoryTransport
from repro.transport.tcp import TcpTransport
from tests.served import ServedListener


class TestRpcTimeoutLeak:
    def _stack(self, script):
        base = InMemoryTransport(flat_network(["node1", "submit"]))
        transport = FaultInjectTransport(base, FaultPlan(script=script))
        server = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
        channel = transport.connect("submit", server.endpoint, timeout=5.0)
        client = AttributeSpaceClient(channel, context="j", member="m")
        return server, client

    def test_timed_out_request_is_dropped_from_pending(self):
        # Channel 0's send 0 is the attach; send 1 (the put below) is
        # dropped, so no reply ever comes and the latch times out.
        server, client = self._stack({(0, 1): "drop"})
        try:
            with pytest.raises(errors.GetTimeoutError):
                client._rpc(
                    {"op": "put", "context": "j", "attribute": "a", "value": "1"},
                    timeout=0.2,
                )
            assert client._session._pending == {}
            # The session is still healthy for subsequent traffic.
            assert client.put("b", "2") == 1
        finally:
            client.close()
            server.stop()

    def test_late_reply_after_timeout_is_harmless(self):
        # A blocking get parked at the server outlives the client-side
        # RPC timeout; when the put finally lands, the server's reply
        # must hit an *empty* pending slot, not a dead latch.
        base = InMemoryTransport(flat_network(["node1", "submit"]))
        server = AttributeSpaceServer(base, "node1", role=ServerRole.LASS)
        channel = base.connect("submit", server.endpoint, timeout=5.0)
        client = AttributeSpaceClient(channel, context="j", member="m")
        other_channel = base.connect("submit", server.endpoint, timeout=5.0)
        other = AttributeSpaceClient(other_channel, context="j", member="other")
        try:
            with pytest.raises(errors.GetTimeoutError):
                client._rpc(
                    {"op": "get", "context": "j", "attribute": "late",
                     "block": True, "timeout": None},
                    timeout=0.1,
                )
            assert client._session._pending == {}
            other.put("late", "v")  # completes the parked get: late reply
            time.sleep(0.2)
            assert client.try_get("late") == "v"  # session still healthy
        finally:
            client.close()
            other.close()
            server.stop()


class TestTcpClosedLatch:
    def test_send_latches_closed_after_peer_gone(self):
        transport = TcpTransport()
        listener = ServedListener(transport.listen("node1"))
        client = transport.connect("submit", listener.endpoint, timeout=5.0)
        server_side = listener.next_end()
        server_side.close()

        # EOF reaches the reader thread, which latches the channel; even
        # if a racing send slips a frame into the dying socket first,
        # the loop below must terminate in a ChannelClosedError and
        # leave the channel latched.
        with pytest.raises(errors.ChannelClosedError):
            for _ in range(200):
                client.send({"n": 0})
                time.sleep(0.01)
        assert client.closed

        # Latched means fail-fast: no socket I/O, just the error.
        with pytest.raises(errors.ChannelClosedError):
            client.send({"n": 1})
        client.close()
        listener.close()

    def test_recv_eof_latches_without_any_send(self):
        # Threadless channels observe EOF at the next recv (there is no
        # reader thread to see it passively): the recv must fail fast
        # with ChannelClosedError — not hang, not time out — and leave
        # the channel latched so later sends fail fast too.
        transport = TcpTransport()
        listener = ServedListener(transport.listen("node1"))
        client = transport.connect("submit", listener.endpoint, timeout=5.0)
        server_side = listener.next_end()
        server_side.close()
        with pytest.raises(errors.ChannelClosedError):
            client.recv(timeout=5.0)
        assert client.closed
        with pytest.raises(errors.ChannelClosedError):
            client.send({"n": 0})
        client.close()
        listener.close()
