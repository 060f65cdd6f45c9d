"""The one serving core: the ``Listener.serve_loop`` contract on every
listener, plus what only the TCP loop has (hello deadlines, preamble
bounds) and the one-thread-per-server scaling contract.

The contract and slow-hello cases drive ``serve_loop`` directly; the
scaling and chaos cases go through the full attribute-space server.
"""

import socket
import sys
import threading
import time

import pytest

from repro import errors
from repro.attrspace.client import AttributeSpaceClient
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.net.topology import flat_network
from repro.transport import framing
from repro.transport.faultinject import FaultInjectTransport, FaultPlan
from repro.transport.inmem import InMemoryTransport
from repro.transport.tcp import TcpTransport


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def make_transport(kind):
    """``tcp`` / ``inmem``, optionally ``+faults``: wrapped on both
    sides by a plan that injects nothing, so the wrapper is what runs."""
    base = (
        TcpTransport() if kind.startswith("tcp")
        else InMemoryTransport(flat_network(["node1", "submit"]))
    )
    if kind.endswith("+faults"):
        return FaultInjectTransport(base, FaultPlan(seed=7, scope="both"))
    return base


class Served:
    """A listener under ``serve_loop`` that logs every callback.

    ``on_closed`` runs after the close is logged, on the serving thread.
    """

    def __init__(self, kind, refuse=False, on_closed=None):
        self.transport = make_transport(kind)
        self.listener = self.transport.listen("node1")
        self.channels = []
        self.messages = []
        self.closed = []
        self.refuse = refuse
        self.after_close = on_closed
        self.loop = self.listener.serve_loop(
            on_channel=self._on_channel,
            on_message=lambda channel, message: self.messages.append(
                (channel, message)),
            on_closed=self._on_closed,
            name="contract-loop",
        )

    def _on_closed(self, channel):
        self.closed.append(channel)
        if self.after_close is not None:
            self.after_close(channel)

    def _on_channel(self, channel):
        if self.refuse:
            return None
        self.channels.append(channel)
        return channel

    def connect(self):
        """A client channel plus the served end the loop made for it."""
        n = len(self.channels)
        client = self.transport.connect(
            "submit", self.listener.endpoint, timeout=5.0)
        client.send({"n": -1})  # TCP announces a peer once it spoke
        assert wait_until(lambda: len(self.channels) == n + 1)
        # One frame back, so the client has also consumed TCP's hello
        # ack: closing a socket with unread bytes resets it instead.
        self.channels[n].send({"hi": n})
        assert client.recv(timeout=5.0) == {"hi": n}
        return client, self.channels[n]

    def stop(self):
        self.loop.stop()
        self.listener.close()


@pytest.fixture(params=["tcp", "inmem", "tcp+faults", "inmem+faults"])
def kind(request):
    return request.param


class TestServeLoop:
    def test_none_token_refuses_peer(self, kind):
        served = Served(kind, refuse=True)
        try:
            client = served.transport.connect(
                "submit", served.listener.endpoint, timeout=5.0)
            with pytest.raises(errors.ChannelClosedError):
                for _ in range(200):
                    client.send({"n": 0})
                    client.recv(timeout=0.05)
        except errors.GetTimeoutError:
            pytest.fail("refused peer was left connected")
        finally:
            served.stop()
        assert served.messages == [] and served.closed == []

    def test_frames_in_order_then_one_close(self, kind):
        served = Served(kind)
        try:
            client, end = served.connect()
            for n in range(300):
                client.send({"n": n})
            client.close()  # frames sent before the close still arrive
            assert wait_until(lambda: served.closed == [end])
            assert [m["n"] for _, m in served.messages] == [-1, *range(300)]
        finally:
            served.stop()
        assert served.closed == [end]

    def test_server_side_close_fires_once(self, kind):
        served = Served(kind)
        try:
            client, end = served.connect()
            end.send({"bye": 1})
            end.close()
            end.close()
            assert wait_until(lambda: served.closed == [end])
            # Queued before the close: delivered, then the hang-up.
            assert client.recv(timeout=5.0) == {"bye": 1}
            with pytest.raises(errors.ChannelClosedError):
                client.recv(timeout=5.0)
            client.close()
        finally:
            served.stop()
        assert served.closed == [end]

    def test_offer_false_at_maxsize_then_cut(self, kind):
        served = Served(kind)
        try:
            client, end = served.connect()  # the client never reads
            fat = {"pad": "x" * 32768}
            accepted = 0
            while end.offer(fat, 8) and accepted < 2000:
                accepted += 1
            # A socket absorbs frames before the bounded buffer counts
            # (and the loop may not have retired connect()'s frame yet);
            # inmem has nothing but the buffer.
            assert 7 <= accepted < 2000
            if kind.startswith("inmem"):
                assert accepted == 8
            assert end.offer(fat, 8) is False  # still full, still no block
            end.close()  # the caller's overflow policy
            assert wait_until(lambda: served.closed == [end])
            with pytest.raises(errors.ChannelClosedError):
                end.offer(fat, 8)
            client.close()
        finally:
            served.stop()
        assert served.closed == [end]

    def test_stop_closes_every_connection_once(self, kind):
        served = Served(kind)
        try:
            pairs = [served.connect() for _ in range(3)]
        finally:
            served.stop()
        assert sorted(map(id, served.closed)) == sorted(
            id(end) for _, end in pairs)
        for client, _ in pairs:
            with pytest.raises(errors.ChannelClosedError):
                for _ in range(50):
                    client.request({"n": 0}, timeout=1.0)
        served.stop()  # idempotent
        assert len(served.closed) == 3


class TestOffLoopSends:
    """The TCP loop's write path: frames queued from any thread go out,
    and the loop never parks in ``select`` with one still queued."""

    @pytest.mark.parametrize("kind", ["tcp", "tcp+faults"])
    def test_frame_sent_from_on_closed_goes_out(self, kind):
        # An off-loop close is torn down on the loop thread, so a frame
        # its on_closed handler sends is queued there with no wake.
        ends = {}

        def on_closed(channel):
            if channel is ends["a"]:
                ends["b"].send({"gone": "a"})

        served = Served(kind, on_closed=on_closed)
        try:
            _client_a, ends["a"] = served.connect()
            client_b, ends["b"] = served.connect()
            time.sleep(0.1)  # let the loop park in select
            ends["a"].close()
            assert client_b.recv(timeout=2.0) == {"gone": "a"}
        finally:
            served.stop()

    @pytest.mark.parametrize("kind", ["tcp", "tcp+faults"])
    def test_concurrent_producers_lose_and_reorder_nothing(self, kind):
        # More producers than cores, and a short switch interval, so the
        # senders interleave with the loop's park/wake decision.
        producers, frames, n_channels = 4, 500, 20
        served = Served(kind)
        interval = sys.getswitchinterval()
        try:
            pairs = [served.connect() for _ in range(n_channels)]

            def produce(p):
                for i in range(frames):
                    pairs[i % n_channels][1].send({"p": p, "i": i})

            threads = [threading.Thread(target=produce, args=(p,))
                       for p in range(producers)]
            sys.setswitchinterval(1e-5)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            for c, (client, _end) in enumerate(pairs):
                got = [client.recv(timeout=5.0)
                       for _ in range(producers * frames // n_channels)]
                for p in range(producers):
                    assert [m["i"] for m in got if m["p"] == p] == list(
                        range(c, frames, n_channels))
        finally:
            sys.setswitchinterval(interval)
            served.stop()


class EchoLoop:
    """A ServerSocketLoop harness that echoes every frame back."""

    def __init__(self, hello_timeout=0.3):
        self.transport = TcpTransport()
        self.listener = self.transport.listen("node1")
        self.closed = []
        self.loop = self.listener.serve_loop(
            on_channel=lambda channel: channel,
            on_message=lambda channel, message: channel.send(
                {"echo": message}),
            on_closed=self.closed.append,
            name="test-echo-loop",
            hello_timeout=hello_timeout,
        )

    def stop(self):
        self.loop.stop()
        self.listener.close()


class TestHelloDeadline:
    def test_silent_peer_does_not_block_other_clients(self):
        harness = EchoLoop(hello_timeout=1.0)
        try:
            silent = socket.create_connection(
                ("127.0.0.1", harness.listener.endpoint.port))
            # With the deadline still pending, a well-behaved client
            # completes its hello and gets service immediately — the
            # old inline handshake would have parked accept() for the
            # full hello timeout here.
            client = harness.transport.connect(
                "submit", harness.listener.endpoint, timeout=5.0)
            t0 = time.monotonic()
            reply = client.request({"op": "ping"}, timeout=5.0)
            assert reply == {"echo": {"op": "ping"}}
            assert time.monotonic() - t0 < 0.9
            client.close()
            silent.close()
        finally:
            harness.stop()

    def test_silent_peer_is_closed_at_deadline(self):
        harness = EchoLoop(hello_timeout=0.3)
        try:
            silent = socket.create_connection(
                ("127.0.0.1", harness.listener.endpoint.port))
            silent.settimeout(5.0)
            t0 = time.monotonic()
            assert silent.recv(1) == b""  # server hung up on us
            elapsed = time.monotonic() - t0
            assert 0.1 < elapsed < 3.0
        finally:
            silent.close()
            harness.stop()

    def test_oversized_preamble_is_cut_off(self):
        harness = EchoLoop(hello_timeout=30.0)
        try:
            sock = socket.create_connection(
                ("127.0.0.1", harness.listener.endpoint.port))
            sock.settimeout(5.0)
            # A frame header promising 200 KB, streamed without ever
            # completing: the preamble cap (64 KB) must cut it off long
            # before the hello deadline would.
            import struct
            sock.sendall(struct.pack(">I", 200_000))
            try:
                for _ in range(20):
                    sock.sendall(b"\0" * 8192)
                    time.sleep(0.01)
            except OSError:
                pass  # reset mid-stream is also a valid cut-off
            assert wait_until(lambda: _peer_gone(sock))
        finally:
            sock.close()
            harness.stop()

    def test_first_frame_must_be_a_hello(self):
        harness = EchoLoop(hello_timeout=30.0)
        try:
            sock = socket.create_connection(
                ("127.0.0.1", harness.listener.endpoint.port))
            sock.settimeout(5.0)
            sock.sendall(framing.encode_frame({"op": "put"}))
            assert sock.recv(1) == b""
        finally:
            sock.close()
            harness.stop()


def _peer_gone(sock) -> bool:
    sock.settimeout(0.05)
    try:
        return sock.recv(1) == b""
    except TimeoutError:
        return False
    except OSError:
        return True


class TestServerScaling:
    N_SUBSCRIBERS = 150

    def test_idle_subscribers_add_no_server_threads(self):
        transport = TcpTransport()
        server = AttributeSpaceServer(transport, "node1", role=ServerRole.CASS)
        channels = []
        try:
            for i in range(self.N_SUBSCRIBERS):
                ch = transport.connect("submit", server.endpoint, timeout=5.0)
                reply = ch.request(
                    {"op": "attach", "req": 0, "context": "j",
                     "member": f"sub-{i}"},
                    timeout=5.0,
                )
                assert reply.get("ok") is True, reply
                reply = ch.request(
                    {"op": "subscribe", "req": 1, "context": "j",
                     "pattern": "hot"},
                    timeout=5.0,
                )
                assert reply.get("ok") is True, reply
                channels.append(ch)

            # Threadless channels + one event loop: nothing per-conn.
            server_threads = sorted(
                t.name for t in threading.enumerate()
                if t.name.startswith(server.name)
            )
            # Leaseless raw attaches never start the sweeper, so the
            # loop thread is the server's ONLY thread at 150 conns.
            assert server_threads == [f"{server.name}-loop"], server_threads

            # The fan-out still reaches every idle subscriber.
            writer = transport.connect("submit", server.endpoint, timeout=5.0)
            writer.request(
                {"op": "attach", "req": 0, "context": "j", "member": "w"},
                timeout=5.0,
            )
            writer.request(
                {"op": "put", "req": 1, "context": "j", "attribute": "hot",
                 "value": "v1"},
                timeout=5.0,
            )
            for ch in (channels[0], channels[-1], channels[len(channels) // 2]):
                notify = ch.recv(timeout=5.0)
                assert notify["op"] == "notify"
                assert notify["attribute"] == "hot"
                assert notify["value"] == "v1"
            writer.close()
        finally:
            for ch in channels:
                ch.close()
            server.stop()

    def test_server_stop_hangs_up_clients(self):
        transport = TcpTransport()
        server = AttributeSpaceServer(transport, "node1", role=ServerRole.CASS)
        ch = transport.connect("submit", server.endpoint, timeout=5.0)
        ch.request(
            {"op": "attach", "req": 0, "context": "j", "member": "m"},
            timeout=5.0,
        )
        server.stop()
        with pytest.raises(errors.ChannelClosedError):
            for _ in range(50):
                ch.request({"op": "ping", "req": 9}, timeout=1.0)
        ch.close()


    def test_idle_inmem_connections_add_no_threads(self):
        transport = make_transport("inmem")
        server = AttributeSpaceServer(transport, "node1", role=ServerRole.CASS)
        before = threading.active_count()
        channels = []
        try:
            for i in range(100):
                ch = transport.connect("submit", server.endpoint, timeout=5.0)
                reply = ch.request(
                    {"op": "attach", "req": 0, "context": "j",
                     "member": f"sub-{i}"},
                    timeout=5.0,
                )
                assert reply.get("ok") is True, reply
                channels.append(ch)
            assert server.connection_count == 100
            assert threading.active_count() == before
            assert [
                t.name for t in threading.enumerate()
                if t.name.startswith(server.name)
            ] == [f"{server.name}-loop"]
        finally:
            for ch in channels:
                ch.close()
            server.stop()


class TestAcceptScopeChaos:
    @pytest.mark.parametrize("base", ["tcp", "inmem"])
    def test_server_frames_perturbed(self, base):
        # An accept-scope plan wraps the channels serve_loop hands up,
        # so server->client frames are duplicated and delayed on the
        # one serving core — and RPCs still succeed.
        plan = FaultPlan(seed=7, scope="accept", dup_rate=0.3,
                         delay_rate=0.3, delay_seconds=0.001)
        transport = FaultInjectTransport(make_transport(base), plan)
        server = AttributeSpaceServer(transport, "node1", role=ServerRole.CASS)
        channel = transport.connect("submit", server.endpoint, timeout=5.0)
        client = AttributeSpaceClient(channel, context="j", member="m")
        try:
            for i in range(1, 41):
                assert client.put("a", str(i)) == i
                assert client.get("a") == str(i)
            assert transport.fault_counts["dup"].value > 0
            assert transport.fault_counts["delay"].value > 0
        finally:
            client.close()
            server.stop()
