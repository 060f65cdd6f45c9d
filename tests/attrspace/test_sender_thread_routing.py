"""In memory, a session routes every frame on the thread that sent it.

The client end of an in-memory channel is in ``deliver`` mode: the
server's send runs the session's sink right there, so a reply opens the
caller's latch from the server's serving thread and a notification is
queued before the reply that follows it.  These tests pin that path, the
sink rule (a sink never raises into the sender) and the one thread a
session still starts: its recovery thread, for as long as an outage
lasts.  Every wait is bounded and none sleeps.
"""

import threading

import pytest

import repro.attrspace.client as client_module
from repro.attrspace.client import AttributeSpaceClient, ReconnectPolicy, _Session
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.net.topology import flat_network
from repro.transport.faultinject import FaultInjectTransport, FaultPlan
from repro.transport.inmem import InMemoryTransport


@pytest.fixture
def transport():
    return InMemoryTransport(flat_network(["node1", "submit"]))


@pytest.fixture
def server(transport):
    srv = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
    yield srv
    srv.stop()


def connect(transport, server, member):
    channel = transport.connect("submit", server.endpoint, timeout=5.0)
    return AttributeSpaceClient(channel, member=member)


def test_a_blocking_put_is_completed_on_the_servers_thread(transport, server):
    with connect(transport, server, "putter") as client:
        completions = []
        submit = client._session.submit

        def recording(request, complete, **kwargs):
            def done(reply):
                completions.append((request["op"], threading.current_thread().name))
                complete(reply)

            return submit(request, done, **kwargs)

        client._session.submit = recording
        assert client.put("k", "v") == 1
        assert completions == [("put", f"{server.name}-loop")]


def test_a_notification_arrives_before_the_reply_sent_after_it(
    transport, server, monkeypatch
):
    """The server publishes a put's notification, then replies: the
    subscriber on the putting session has its event queued by the time
    ``put`` returns, and both frames were routed on the server's thread."""
    routed = []
    route = _Session._route

    def recording(self, message):
        kind = message.get("op") or f"reply {message.get('reply_to')}"
        routed.append((kind, threading.current_thread().name))
        route(self, message)

    monkeypatch.setattr(_Session, "_route", recording)
    with connect(transport, server, "both") as client:
        seen = []
        client.subscribe("k*", lambda n, arg: seen.append(n.value))
        routed.clear()
        client.put("k1", "v1")
        loop = f"{server.name}-loop"
        assert [kind.split()[0] for kind, _thread in routed] == ["notify", "reply"]
        assert {thread for _kind, thread in routed} == {loop}
        assert client.has_pending_events()
        assert client.service_events() == 1
        assert seen == ["v1"]


def test_a_push_to_a_closed_client_does_not_reach_the_server(transport, server):
    """A subscriber that has just gone — its channel closed, or only its
    event queue — costs the putter nothing: the server's put still
    answers and it goes on serving its other connections."""
    gone = connect(transport, server, "gone")
    gone.subscribe("k*", lambda n, arg: None)
    quiet = connect(transport, server, "quiet")
    quiet.subscribe("k*", lambda n, arg: None)
    with connect(transport, server, "putter") as putter:
        gone.close(detach=False)
        quiet.events.close()  # as a session's failure leaves it
        assert putter.put("k1", "v1") == 1
        assert putter.put("k2", "v2") == 1
        with connect(transport, server, "other") as other:
            assert other.try_get("k2") == "v2"
            assert other.ping()["ok"]
    quiet.close()


def test_a_severed_call_replays_and_its_recovery_thread_ends(
    transport, server, monkeypatch
):
    """A scripted sever on the put's send: the session's one thread is
    its recovery thread, which re-dials, replays the put and, once the
    new channel delivers, ends."""
    recoveries = []
    spawn = client_module.spawn

    def recording(target, **kwargs):
        thread = spawn(target, **kwargs)
        recoveries.append(thread)
        return thread

    monkeypatch.setattr(client_module, "spawn", recording)
    # channel 0 is the first dial: send 0 the attach, send 1 the put
    chaos = FaultInjectTransport(transport, FaultPlan(script={(0, 1): "sever"}))
    client = AttributeSpaceClient.connect(
        chaos, "submit", server.endpoint, member="severed",
        reconnect=ReconnectPolicy(base_delay=0.001, max_delay=0.01, seed=3),
    )
    try:
        assert recoveries == []
        assert client.put("k", "v") == 1
        assert chaos.fault_counts["sever"].value == 1
        assert [e["event"] for e in client.session_log] == [
            "session.lost", "session.reestablished",
        ]
        assert [t.name for t in recoveries] == ["attr-client-severed"]
        recoveries[0].join(timeout=10.0)
        assert not recoveries[0].is_alive()
        assert client.try_get("k") == "v"
    finally:
        client.close()
    assert len(recoveries) == 1
