"""Decoupled notification fan-out: bounded per-connection buffers and
the slow-subscriber policy, on both transports.

The invariant under test: the put path NEVER blocks on any subscriber.
Delivery is a bounded offer onto the subscriber's served channel; a
subscriber left ``OUTBOUND_QUEUE_LIMIT`` frames behind is disconnected
(with a stat), a connection that died mid-publish is simply skipped,
and frames queued before a teardown still reach their reader.

Everything here drives public surface only — raw channels, clients,
``server.stats`` and ``server.store`` — so the same assertions hold for
the inmem dispatcher and the TCP selectors loop.  The ``*OnTcp``
subclasses re-run each class over real sockets.
"""

import socket
import threading
import time

import pytest

from repro import errors, obs
from repro.attrspace import protocol
from repro.attrspace.client import AttributeSpaceClient
from repro.attrspace.server import (
    OUTBOUND_QUEUE_LIMIT,
    AttributeSpaceServer,
    ServerRole,
)
from repro.net.topology import flat_network
from repro.transport import framing
from repro.transport.inmem import InMemoryTransport
from repro.transport.tcp import TcpTransport

#: Fat enough that a non-reading TCP peer's kernel buffers fill within a
#: few hundred frames, after which the loop's bounded buffer takes over.
FAT = "x" * 32768

#: Upper bound on frames a non-reading peer's socket buffers may absorb
#: before the server-side buffer starts counting (inmem absorbs none).
KERNEL_SLACK = 2000


class World:
    def __init__(self, kind):
        self.kind = kind
        self.transport = (
            InMemoryTransport(flat_network(["node1"])) if kind == "inmem"
            else TcpTransport()
        )
        self.server = AttributeSpaceServer(self.transport, "node1")

    def connect(self):
        return self.transport.connect("node1", self.server.endpoint, timeout=5.0)

    def client(self, member):
        return AttributeSpaceClient(self.connect(), member=member)

    def silent_subscriber(self, *patterns):
        """A raw channel that subscribes and then never reads again."""
        chan = self.connect()
        for req, pattern in enumerate(patterns, start=1):
            reply = chan.request(
                {"op": "subscribe", "req": req, "pattern": pattern}, timeout=5.0
            )
            assert reply.get("ok") is True, reply
        return chan

    @property
    def cuts(self):
        return self.server.stats["slow_subscriber_disconnects"].value


class _OnInmem:
    kind = "inmem"

    @pytest.fixture
    def world(self):
        w = World(self.kind)
        yield w
        w.server.stop()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.005)
    return predicate()


class TestSlowSubscriberPolicy(_OnInmem):
    def test_wedged_subscriber_does_not_block_put(self, world):
        """With a subscriber that accepts no more frames, every put
        still returns promptly — and below the limit nobody is cut."""
        sub_chan = world.silent_subscriber("k*")
        publisher = world.client("publisher")
        done = threading.Event()
        versions = []

        def put():
            for i in range(OUTBOUND_QUEUE_LIMIT // 2):
                versions.append(publisher.put("k1", FAT))
            done.set()

        threading.Thread(target=put, daemon=True).start()
        assert done.wait(timeout=30.0), "put blocked behind a wedged subscriber"
        assert versions == list(range(1, OUTBOUND_QUEUE_LIMIT // 2 + 1))
        assert world.cuts == 0
        publisher.close()
        sub_chan.close()

    def test_overflowing_subscriber_is_disconnected_with_stat(self, world):
        sub_chan = world.silent_subscriber("k*")
        publisher = world.client("publisher")
        # Not before the limit...
        for i in range(OUTBOUND_QUEUE_LIMIT):
            publisher.put("k", FAT)
        assert world.cuts == 0
        # ...and once the laggard is a full buffer behind, the server
        # cuts it off rather than ever stalling the put path.
        extra = 0
        while world.cuts == 0 and extra < KERNEL_SLACK:
            publisher.put("k", FAT)
            extra += 1
        assert world.cuts == 1
        if world.kind == "inmem":
            assert extra == 1  # nothing but the bounded buffer absorbs
        # The put path stayed healthy throughout.
        publisher.put("k", "last")
        assert publisher.try_get("k") == "last"
        assert world.cuts == 1
        publisher.close()
        # The dead subscriber's subscription is reaped by the serving
        # core's cleanup, so later puts stop fanning out to it.
        assert wait_until(lambda: len(world.server.store.subscriptions) == 0)
        # What was queued before the cut still drains, then the hang-up.
        with pytest.raises(errors.ChannelClosedError):
            for _ in range(OUTBOUND_QUEUE_LIMIT + KERNEL_SLACK):
                assert sub_chan.recv(timeout=5.0)["op"] == "notify"
        sub_chan.close()


class TestDeadSubscriber(_OnInmem):
    def test_publish_to_connection_died_mid_publish(self, world):
        """The window where a connection is already dead but its
        subscriptions are not yet reaped: delivery must be skipped
        silently, never raised into the putter.

        Two subscriptions on one silent connection make every put fan
        out twice to it; the put whose first delivery overflows the
        buffer kills the connection, and its second delivery hits the
        corpse mid-publish."""
        sub_chan = world.silent_subscriber("k*", "k?")
        publisher = world.client("publisher")
        puts = 0
        while world.cuts == 0 and puts < OUTBOUND_QUEUE_LIMIT + KERNEL_SLACK:
            puts += 1
            assert publisher.put("k1", FAT) == puts  # must not raise or hang
        assert world.cuts == 1  # the corpse is skipped, not cut twice
        assert publisher.try_get("k1") == FAT
        publisher.close()
        sub_chan.close()


class TestTeardownDrain(_OnInmem):
    def test_queued_frames_survive_queue_close(self, world):
        """Teardown is a graceful drain: frames queued for a reader
        before the server closed its connection are still delivered,
        in order, ahead of the hang-up."""
        sub_chan = world.silent_subscriber("k*")
        publisher = world.client("publisher")
        for i in range(10):
            publisher.put("k", str(i))
        publisher.close()
        world.server.stop()
        got = [sub_chan.recv(timeout=5.0) for _ in range(10)]
        assert [frame["value"] for frame in got] == [str(i) for i in range(10)]
        with pytest.raises(errors.ChannelClosedError):
            sub_chan.recv(timeout=5.0)
        sub_chan.close()

    def test_subscriber_close_with_inflight_notifications_no_deadlock(self, world):
        """Closing a subscriber while a notification flood is in flight
        must not deadlock server teardown or the put path."""
        subscriber = world.client("sub")
        subscriber.subscribe("k*", lambda n, a: None)
        publisher = world.client("pub")
        stop = threading.Event()

        def flood():
            i = 0
            while not stop.is_set():
                publisher.put("k", str(i))
                i += 1

        t = threading.Thread(target=flood, daemon=True)
        t.start()
        time.sleep(0.05)  # let notifications pile up
        subscriber.close(detach=False)
        stop.set()
        t.join(timeout=10.0)
        assert not t.is_alive(), "put path deadlocked on subscriber teardown"
        # Server is still fully responsive.
        assert publisher.ping()["role"] == "lass"
        publisher.close()


class TestSlowSubscriberPolicyOnTcp(TestSlowSubscriberPolicy):
    kind = "tcp"


class TestDeadSubscriberOnTcp(TestDeadSubscriber):
    kind = "tcp"


class TestTeardownDrainOnTcp(TestTeardownDrain):
    kind = "tcp"


class TestWakeLedger:
    """A fan-out burst costs the serving loop a hand-off, not a wake per
    frame: an event the LASS applies on its upstream session's receive
    thread reaches every local subscriber in a few loop passes."""

    SUBSCRIBERS = 200

    def test_a_burst_wakes_the_loop_per_pass_not_per_frame(self):
        transport = TcpTransport()
        cass = AttributeSpaceServer(transport, "hub", role=ServerRole.CASS)
        lass = AttributeSpaceServer(transport, "hostA", upstream=cass.endpoint)
        channels = []
        try:
            for i in range(self.SUBSCRIBERS):
                channel = transport.connect("hostA", lass.endpoint, timeout=5.0)
                channel.send_many([
                    {"op": "attach", "req": 0, "context": "j",
                     "member": f"sub-{i}"},
                    {"op": "subscribe", "req": 1, "context": "j",
                     "pattern": "hot.*"},
                ])
                channels.append(channel)
            for channel in channels:
                for req in (0, 1):
                    assert channel.recv(timeout=5.0).get("ok") is True
            lass.federation.settle(timeout=5.0)
            assert wait_until(lambda: len(cass.store.subscriptions) == 1)

            # The loop's first flush pass waits until the whole burst is
            # queued, so the count measures the wake rule (a sender wakes
            # the loop only if no wake is pending), not how the scheduler
            # interleaved the fan-out with the loop's passes.
            loop = lass._loop
            wakes, passes, queued = [], [], []
            burst_queued = threading.Event()
            real_wake, real_flush = loop._wake, loop._flush_dirty
            real_enqueue = loop._enqueue

            def enqueue(st, message, maxsize):
                sent = real_enqueue(st, message, maxsize)
                queued.append(1)
                if len(queued) >= self.SUBSCRIBERS:
                    burst_queued.set()
                return sent

            def flush():
                if not passes:
                    burst_queued.wait(timeout=5.0)
                passes.append(1)
                real_flush()

            loop._wake = lambda: (wakes.append(1), real_wake())
            loop._enqueue = enqueue
            loop._flush_dirty = flush

            writer = AttributeSpaceClient(
                transport.connect("submit", cass.endpoint, timeout=5.0),
                context="j", member="writer")
            writer.put("hot.x", "v1")
            for channel in channels:
                frame = channel.recv(timeout=5.0)
                assert (frame["op"], frame["value"]) == ("notify", "v1")
            assert burst_queued.is_set()
            n_wakes, n_passes = len(wakes), len(passes)
            assert n_wakes <= n_passes + 1, (n_wakes, n_passes)
            assert n_wakes <= 2, (n_wakes, n_passes)
            writer.close()
        finally:
            for channel in channels:
                channel.close()
            lass.stop()
            cass.stop()


class TestSharedNotifyBody:
    """A fan-out encodes its notify body once per event and codec: every
    subscriber's frame is that body with its own ``sub`` spliced in."""

    SUBSCRIBERS = 200

    @pytest.fixture
    def cass(self):
        transport = TcpTransport()
        server = AttributeSpaceServer(transport, "hub", role=ServerRole.CASS)
        yield transport, server
        server.stop()

    @pytest.fixture
    def tracing(self):
        """Set observability on or off for one case, then restore it."""
        was_enabled = obs.enabled()
        yield obs.set_enabled
        obs.set_enabled(was_enabled)

    @pytest.fixture
    def notify_encodes(self, monkeypatch):
        """Count the notify bodies the codec encodes."""
        counted = []
        encode = protocol.encode_body

        def counting(message, *args):
            if message.get("op") == protocol.OP_NOTIFY:
                counted.append(message["sub"])
            return encode(message, *args)

        monkeypatch.setattr(protocol, "encode_body", counting)
        return counted

    @staticmethod
    def subscribe(channel, member):
        """Attach and subscribe to ``hot.*``; returns the sub id."""
        channel.send_many([
            {"op": "attach", "req": 0, "context": "j", "member": member},
            {"op": "subscribe", "req": 1, "context": "j", "pattern": "hot.*"},
        ])
        replies = [channel.recv(timeout=5.0) for _ in range(2)]
        assert all(reply.get("ok") is True for reply in replies), replies
        return replies[1]["sub"]

    def put(self, transport, server, value):
        writer = AttributeSpaceClient(
            transport.connect("submit", server.endpoint, timeout=5.0),
            context="j", member="writer")
        writer.put("hot.x", value)
        writer.close()

    def subscribers(self, transport, server):
        channels = {}
        for i in range(self.SUBSCRIBERS):
            channel = transport.connect("hostA", server.endpoint, timeout=5.0)
            channels[self.subscribe(channel, f"sub-{i}")] = channel
        return channels

    def test_one_put_encodes_its_notify_body_once(self, cass, notify_encodes, tracing):
        tracing(False)
        transport, server = cass
        channels = self.subscribers(transport, server)
        try:
            self.put(transport, server, "v1")
            for sub, channel in channels.items():
                frame = channel.recv(timeout=5.0)
                assert frame == {
                    "op": "notify", "sub": sub, "context": "j", "attribute": "hot.x",
                    "value": "v1", "kind": "put", "origin": None,
                }
            assert len(notify_encodes) == 1, len(notify_encodes)
            assert server.stats["notifications"].value == self.SUBSCRIBERS
        finally:
            for channel in channels.values():
                channel.close()

    def test_a_json_and_a_binary_subscriber_read_one_notification(
        self, cass, notify_encodes, tracing
    ):
        tracing(False)
        transport, server = cass
        binary = transport.connect("hostA", server.endpoint, timeout=5.0)
        sock = socket.create_connection(("127.0.0.1", server.endpoint.port))
        reader, pending = framing.FrameReader(), []

        def recv_json():
            sock.settimeout(5.0)
            while not pending:
                pending.extend(reader.feed(sock.recv(65536)))
            return pending.pop(0)

        try:
            # A bare hello: the server stays on JSON for this peer.
            sock.sendall(b"".join(framing.encode_frame(m) for m in (
                {"hello": "hostB"},
                {"op": "attach", "req": 0, "context": "j", "member": "json"},
                {"op": "subscribe", "req": 1, "context": "j", "pattern": "hot.*"},
            )))
            assert recv_json().get("ok") is True
            json_sub = recv_json()["sub"]
            binary_sub = self.subscribe(binary, "binary")
            assert binary._send_codec == protocol.CODEC_BINARY
            self.put(transport, server, "v2")
            got_json, got_binary = recv_json(), binary.recv(timeout=5.0)
            assert got_json.pop("sub") == json_sub
            assert got_binary.pop("sub") == binary_sub
            assert got_json == got_binary == {
                "op": "notify", "context": "j", "attribute": "hot.x",
                "value": "v2", "kind": "put", "origin": None,
            }
            assert len(notify_encodes) == 2  # once per codec
        finally:
            sock.close()
            binary.close()

    def test_every_traced_delivery_carries_its_own_context(self, cass, tracing):
        tracing(True)
        transport, server = cass
        channels = self.subscribers(transport, server)
        try:
            self.put(transport, server, "v3")
            frames = [channel.recv(timeout=5.0) for channel in channels.values()]
            assert [f["sub"] for f in frames] == list(channels)
            contexts = [f[protocol.OBS_FIELD] for f in frames]
            assert len({c["t"] for c in contexts}) == 1  # the put's trace
            assert len({c["s"] for c in contexts}) == self.SUBSCRIBERS
        finally:
            for channel in channels.values():
                channel.close()
