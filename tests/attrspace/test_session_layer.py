"""The client's two layers: one pending table, one exchange, one encoder.

Pins what fell out of giving the session layer one of everything:

* a send that fails on a non-reconnecting session is reported once, by
  the raise — not a second time as an error completion at teardown;
* a subscribe parked by an outage after the reconnect handshake walked
  the ledger is still covered before the channel is swapped in;
* ``put_many``, ``get_many`` and ``batch()`` spell their sub-ops through
  one encoder and parse the sub-replies through one parser.
"""

import threading
import time

import pytest

from repro import errors
from repro.attrspace import protocol
from repro.attrspace.client import AttributeSpaceClient, ReconnectPolicy
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.net.topology import flat_network
from repro.transport.base import Channel
from repro.transport.inmem import InMemoryTransport

FAST = ReconnectPolicy(base_delay=0.01, max_delay=0.05, deadline=10.0, seed=7)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TapChannel(Channel):
    """Delegating channel: records sends, can refuse them, sees receives."""

    def __init__(self, inner, on_recv=lambda message: None):
        self._inner = inner
        self._on_recv = on_recv
        self.sent = []
        self.refuse_sends = False

    def send(self, message):
        if self.refuse_sends:
            raise errors.ChannelClosedError("send refused")
        self.sent.append(message)
        self._inner.send(message)

    def recv(self, timeout=None):
        message = self._inner.recv(timeout=timeout)
        self._on_recv(message)
        return message

    def close(self):
        self._inner.close()

    closed = property(lambda self: self._inner.closed)
    local_host = property(lambda self: self._inner.local_host)
    remote_host = property(lambda self: self._inner.remote_host)


@pytest.fixture
def transport():
    return InMemoryTransport(flat_network(["node1", "submit"]))


@pytest.fixture
def server(transport):
    srv = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
    yield srv
    srv.stop()


def tapped_client(transport, server, member="m"):
    tap = TapChannel(transport.connect("submit", server.endpoint, timeout=5.0))
    return tap, AttributeSpaceClient(tap, context="job", member=member)


class TestOneRegistrationPath:
    @pytest.mark.parametrize("verb", ["async_get", "async_put"])
    def test_failed_async_send_is_reported_exactly_once(self, transport, server, verb):
        tap, client = tapped_client(transport, server)
        completions = []

        def callback(value, error, arg):
            completions.append((value, error))

        tap.refuse_sends = True
        with pytest.raises(errors.TdpError):
            if verb == "async_get":
                client.async_get("never", callback)
            else:
                client.async_put("never", "1", callback)
        client.close()
        assert wait_until(lambda: client.events.closed)
        client.service_events()
        assert completions == []


class TestLedgerCoversParkedSubscribes:
    def test_subscribe_parked_after_the_ledger_walk_is_not_lost(self, transport, server):
        """The window: the handshake has re-established the ledger it
        saw, the channel is not swapped in yet, and a subscribe arrives.
        Driven from inside the handshake's last reply."""
        seen = []
        late = {}
        handshake_replies = []

        def on_recv(message):
            if "reply_to" in message:
                handshake_replies.append(message)
            # attach, then the one ledger entry: that was the last reply
            if len(handshake_replies) == 2 and not late:
                late["thread"] = threading.Thread(
                    target=lambda: client.subscribe(
                        "late.*", lambda n, arg: seen.append(n.value)
                    )
                )
                late["thread"].start()
                time.sleep(0.2)  # it parks: the session is mid-outage

        dialed = []

        def dial():
            inner = transport.connect("submit", server.endpoint, timeout=5.0)
            dialed.append(inner if not dialed else TapChannel(inner, on_recv))
            return dialed[-1]

        client = AttributeSpaceClient(
            dial(), context="job", member="m", dial=dial,
            reconnect=FAST, lease_ttl=30.0,
        )
        try:
            client.subscribe("first.*", lambda n, arg: seen.append(n.value))
            dialed[0].close()  # the network cut
            assert wait_until(lambda: any(
                r["event"] == "session.reestablished" for r in client.session_log
            ))
            late["thread"].join(timeout=5.0)
            assert not late["thread"].is_alive(), "parked subscribe never answered"

            client.put("late.x", "1")
            client.put("first.x", "2")
            assert wait_until(lambda: client.service_events() or len(seen) == 2)
            assert sorted(seen) == ["1", "2"]
        finally:
            client.close()


class TestOneBatchEncoder:
    @pytest.mark.parametrize("verb", ["put", "get"])
    def test_many_verbs_and_batch_put_the_same_frame_on_the_wire(
        self, transport, server, verb
    ):
        tap, client = tapped_client(transport, server)
        client.put_many([("a", "1"), ("c", "3")])

        def via_many():
            if verb == "put":
                client.put_many([("a", "1"), ("hb", "2", True), ("bad", 5), ("c", "3")])
            else:
                client.get_many(["a", "absent", "c", "gone"])

        def via_batch():
            with client.batch() as b:
                if verb == "put":
                    b.put("a", "1")
                    b.put("hb", "2", ephemeral=True)
                    b.put("bad", 5)
                    b.put("c", "3")
                else:
                    for attribute in ("a", "absent", "c", "gone"):
                        b.try_get(attribute)

        def run(action):
            del tap.sent[:]
            with pytest.raises(errors.TdpError) as caught:
                action()
            (frame,) = [f for f in tap.sent if f["op"] == protocol.OP_BATCH]
            body = {k: v for k, v in frame.items() if k not in ("req", "obs")}
            return protocol.encode_body(body), caught.value

        try:
            many_bytes, many_error = run(via_many)
            batch_bytes, batch_error = run(via_batch)
            assert many_bytes == batch_bytes
            assert type(many_error) is type(batch_error)
            assert str(many_error) == str(batch_error)
            assert client.try_get("c") == "3"  # later sub-ops still applied
        finally:
            client.close()
