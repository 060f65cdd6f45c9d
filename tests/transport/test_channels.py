"""Channel semantics tests, run against BOTH transports.

The whole point of the transport abstraction is that protocol code is
backend-agnostic, so these tests are parametrized over the in-memory
and real-TCP implementations.
"""

import sys
import threading

import pytest

from repro.errors import (
    ChannelClosedError,
    ConnectError,
    FirewallBlockedError,
    GetTimeoutError,
)
from repro.net.address import Endpoint
from repro.net.topology import Network, flat_network
from repro.transport.inmem import InMemoryTransport, _InMemChannel, loopback_transport
from repro.transport.tcp import TcpTransport
from repro.util.sync import Latch
from tests.served import ServedListener


@pytest.fixture(params=["inmem", "tcp"])
def transport(request):
    if request.param == "inmem":
        return InMemoryTransport(flat_network(["alpha", "beta"]))
    return TcpTransport()


def connect_pair(transport):
    """Open a connected (client, served server end, listener) triple."""
    listener = ServedListener(transport.listen("beta"))
    client = transport.connect("alpha", listener.endpoint, timeout=5.0)
    return client, listener.next_end(), listener


class TestBasicMessaging:
    def test_send_recv(self, transport):
        client, server, listener = connect_pair(transport)
        client.send({"op": "ping", "n": 1})
        assert server.recv(timeout=5.0) == {"op": "ping", "n": 1}
        server.send({"op": "pong", "n": 1})
        assert client.recv(timeout=5.0) == {"op": "pong", "n": 1}
        client.close()
        server.close()
        listener.close()

    def test_ordering_preserved(self, transport):
        client, server, listener = connect_pair(transport)
        for i in range(50):
            client.send({"i": i})
        got = [server.recv(timeout=5.0)["i"] for i in range(50)]
        assert got == list(range(50))
        client.close()
        server.close()
        listener.close()

    def test_request_helper(self, transport):
        client, server, listener = connect_pair(transport)

        def echo():
            msg = server.recv(timeout=5.0)
            server.send({"echo": msg})

        t = threading.Thread(target=echo)
        t.start()
        reply = client.request({"q": 1}, timeout=5.0)
        t.join(timeout=5.0)
        assert reply == {"echo": {"q": 1}}
        client.close()
        server.close()
        listener.close()

    def test_recv_timeout(self, transport):
        client, server, listener = connect_pair(transport)
        with pytest.raises(GetTimeoutError):
            client.recv(timeout=0.02)
        client.close()
        server.close()
        listener.close()

    def test_host_labels(self, transport):
        client, server, listener = connect_pair(transport)
        assert client.local_host == "alpha"
        assert client.remote_host == "beta"
        assert server.local_host == "beta"
        assert server.remote_host == "alpha"
        client.close()
        server.close()
        listener.close()


class TestCloseSemantics:
    def test_close_wakes_peer_reader(self, transport):
        client, server, listener = connect_pair(transport)
        errors = []

        def reader():
            try:
                server.recv(timeout=5.0)
            except Exception as e:  # noqa: BLE001
                errors.append(e)

        t = threading.Thread(target=reader)
        t.start()
        client.close()
        t.join(timeout=5.0)
        assert not t.is_alive()
        assert errors and isinstance(errors[0], ChannelClosedError)
        server.close()
        listener.close()

    def test_send_after_close_raises(self, transport):
        client, server, listener = connect_pair(transport)
        client.close()
        with pytest.raises(ChannelClosedError):
            client.send({"x": 1})
        server.close()
        listener.close()

    def test_close_idempotent(self, transport):
        client, server, listener = connect_pair(transport)
        client.close()
        client.close()
        server.close()
        listener.close()

    def test_context_manager(self, transport):
        client, server, listener = connect_pair(transport)
        with client:
            pass
        assert client.closed
        server.close()
        listener.close()


class TestDeliver:
    """A dialled channel's push mode: every frame goes to the sink in send
    order, those received before ``deliver`` first, then ``on_closed``
    once, however the channel closed."""

    def test_frames_in_order_then_one_close(self, transport):
        client, server, listener = connect_pair(transport)
        for i in range(3):
            server.send({"i": i})
        got, closes = [], []
        closed: Latch[bool] = Latch()

        def on_closed():
            closes.append(len(got))
            closed.open(True)

        client.deliver(lambda m: got.append(m["i"]), on_closed, name="test-deliver")
        for i in range(3, 6):
            server.send({"i": i})
        server.close()
        assert closed.wait(timeout=5.0)
        client.close()
        assert got == list(range(6))
        assert closes == [6]
        listener.close()

    def test_own_close_ends_delivery(self, transport):
        client, _server, listener = connect_pair(transport)
        closed: Latch[bool] = Latch()
        client.deliver(lambda m: None, lambda: closed.open(True), name="test-deliver")
        client.close()
        assert closed.wait(timeout=5.0)
        listener.close()


class TestConnectFailures:
    def test_connect_to_nothing(self, transport):
        with pytest.raises(ConnectError):
            transport.connect("alpha", Endpoint("beta", 1), timeout=1.0)

    def test_connect_after_listener_close(self, transport):
        listener = transport.listen("beta")
        ep = listener.endpoint
        listener.close()
        with pytest.raises(ConnectError):
            transport.connect("alpha", ep, timeout=1.0)


class TestTcpSpecifics:
    def test_frames_coalesced_with_hello_not_dropped(self):
        """One TCP segment can carry the hello preamble AND the
        client's first requests (the client sends its attach right
        after connecting).  The serving loop must hand everything past
        the hello to the connection, not drop it."""
        import socket as socketlib

        from repro.transport import framing

        transport = TcpTransport()
        listener = ServedListener(transport.listen("beta"))
        real_port = transport._bound[listener.endpoint]
        raw = socketlib.create_connection(("127.0.0.1", real_port), timeout=5.0)
        try:
            # Hello + two frames + the HEAD of a third, all in one send:
            # the trailing partial frame exercises the reader-buffer
            # handoff, not just the decoded-frame handoff.
            third = framing.encode_frame({"op": "put", "seq": 3})
            raw.sendall(
                framing.encode_frame({"hello": "alpha"})
                + framing.encode_frame({"op": "attach", "seq": 1})
                + framing.encode_frame({"op": "put", "seq": 2})
                + third[: len(third) // 2]
            )
            server = listener.next_end()
            raw.sendall(third[len(third) // 2:])
            assert server.remote_host == "alpha"
            got = [server.recv(timeout=5.0)["seq"] for _ in range(3)]
            assert got == [1, 2, 3]
            server.close()
        finally:
            raw.close()
            listener.close()


class TestInMemorySpecifics:
    def test_concurrent_senders_keep_order_and_the_close_comes_last(self):
        """Four threads send on one end while a fifth closes the other,
        which delivers: each frame is routed on its sender's thread, each
        sender's frames in order, and ``on_closed`` once, after the last."""
        a, b = _InMemChannel.pair("alpha", "beta")
        got, closes = [], []
        busy: Latch[bool] = Latch()

        def sink(message):
            got.append((message["t"], message["n"], threading.current_thread().name))
            if len(got) == 400:
                busy.open(True)

        b.deliver(sink, lambda: closes.append(len(got)), name="unused")

        def send(t):
            for n in range(100_000):
                try:
                    a.send({"t": t, "n": n})
                except ChannelClosedError:
                    return

        senders = [
            threading.Thread(target=send, args=(t,), name=f"sender-{t}")
            for t in range(4)
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in senders:
                thread.start()
            assert busy.wait(timeout=30.0)
            closer = threading.Thread(target=b.close, name="closer")
            closer.start()
            for thread in [closer, *senders]:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert closes == [len(got)]
        for t in range(4):
            mine = [(n, name) for tt, n, name in got if tt == t]
            assert [n for n, _name in mine] == list(range(len(mine)))
            assert {name for _n, name in mine} <= {f"sender-{t}"}

    def test_firewall_blocks_connect(self):
        net = Network()
        net.add_zone("campus")
        net.add_private_zone("cluster")
        net.add_host("submit", "campus")
        net.add_host("node1", "cluster")
        transport = InMemoryTransport(net)
        listener = transport.listen("node1", 7000)
        with pytest.raises(FirewallBlockedError):
            transport.connect("submit", listener.endpoint)
        listener.close()

    def test_unserializable_message_caught_at_send(self):
        client, server = _InMemChannel.pair("localhost", "localhost")
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            client.send({"bad": object()})  # type: ignore[dict-item]
        client.close()
        server.close()

    def test_a_send_encodes_its_frame_once_with_obs_on(self, monkeypatch):
        """The frame counted for ``transport.inmem.bytes`` is the JSON
        text the copy scans back: one encode per send, the length of the
        frame ``encode_frame`` would build."""
        from repro import obs
        from repro.attrspace import protocol
        from repro.transport import framing

        encodes = []
        json_text = protocol._json_text

        def counted(message):
            encodes.append(message)
            return json_text(message)

        monkeypatch.setattr(protocol, "_json_text", counted)
        was = obs.enabled()
        obs.set_enabled(True)
        obs.reset()
        client, server = _InMemChannel.pair("localhost", "localhost")
        try:
            client.send({"n": 1})
            assert server.recv(timeout=1.0) == {"n": 1}
            assert len(encodes) == 1
            bytes_sent = obs.registry().counter("transport.inmem.bytes").value
            assert bytes_sent == len(framing.encode_frame({"n": 1}))
        finally:
            client.close()
            server.close()
            obs.reset()
            obs.set_enabled(was)

    def test_a_kept_channel_does_not_pin_a_stopped_serving_loop(self):
        # A daemon's record may outlive its connections (a finished
        # job's starter keeps its shadow channel): once served and
        # closed, a channel must not keep the dispatcher alive.
        import gc
        import weakref

        transport = loopback_transport()
        listener = transport.listen("localhost")
        loop = listener.serve_loop(
            on_channel=lambda channel: channel,
            on_message=lambda channel, message: None,
            on_closed=lambda channel: None,
            name="test-kept-channel",
        )
        client = transport.connect("localhost", listener.endpoint)
        client.send({"n": 1})
        loop.stop()
        listener.close()
        dispatcher = weakref.ref(loop)
        del loop, listener
        gc.collect()
        assert dispatcher() is None
        assert client.closed

    def test_ephemeral_ports_distinct(self):
        transport = loopback_transport()
        l1 = transport.listen("localhost")
        l2 = transport.listen("localhost")
        assert l1.endpoint.port != l2.endpoint.port
        l1.close()
        l2.close()

    def test_explicit_port_conflict(self):
        transport = loopback_transport()
        l1 = transport.listen("localhost", 5000)
        with pytest.raises(ConnectError):
            transport.listen("localhost", 5000)
        l1.close()
        # Port is free again after close.
        l2 = transport.listen("localhost", 5000)
        l2.close()

    def test_close_all(self):
        transport = loopback_transport()
        transport.listen("localhost")
        transport.listen("localhost")
        assert len(transport.open_listeners()) == 2
        transport.close_all()
        assert transport.open_listeners() == []
