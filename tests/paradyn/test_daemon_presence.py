"""paradynd announces its presence once: an ephemeral
``presence.paradynd/<job>`` put in the batch that reads its launch
record, before it asks the RM to attach, and removed by the server when
paradynd's session ends.  Presence is the liveness signal of a daemon
the RM did not start: a subscriber sees its removal at once after a
crash, and none while a leased session resumes inside its TTL."""

import time

import pytest

from repro.attrspace.client import ReconnectPolicy
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.parador.run import ParadorScenario
from repro.sim.cluster import SimCluster
from repro.tdp.api import (
    tdp_exit,
    tdp_init,
    tdp_poll,
    tdp_put,
    tdp_service_events,
    tdp_subscribe,
)
from repro.tdp.handle import Role
from repro.tdp.wellknown import Attr, ProcStatus


def test_presence_spans_paradynds_session(monkeypatch):
    with ParadorScenario(execute_hosts=["node1"]) as scenario:
        subscriptions = scenario.pool.startds["node1"].lass.store.subscriptions
        changes = []  # notifications, in the LASS's apply order
        publish = subscriptions.publish

        def tap(notification):
            changes.append(notification)
            publish(notification)

        monkeypatch.setattr(subscriptions, "publish", tap)
        run = scenario.submit_monitored("foo", "1 2 3")
        assert run.session.wait_state("exited", timeout=60.0)
        job = next(n.context for n in changes if n.attribute == Attr.PID)
        presence = Attr.presence(f"paradynd/{job}")
        deadline = time.monotonic() + 10.0  # paradynd's tdp_exit follows the exit
        while time.monotonic() < deadline and not any(
            n.attribute == presence and n.kind == "remove" for n in changes
        ):
            time.sleep(0.01)

    in_job = [(n.attribute, n.kind, n.value) for n in changes if n.context == job]
    seen = [(a, k) for a, k, _ in in_job]
    first_request = next(
        i for i, (a, _) in enumerate(seen) if a.startswith(Attr.ctl_request(""))
    )
    assert seen.index((presence, "put")) < first_request
    # put once, and removed by paradynd's tdp_exit after the application exited
    assert [k for a, k in seen if a == presence] == ["put", "remove"]
    exited = next(
        i for i, (a, k, v) in enumerate(in_job)
        if a.startswith("proc.") and k == "put" and ProcStatus.is_exited(v)
    )
    assert seen.index((presence, "remove")) > exited
    assert not any(n.attribute.startswith("hb.") for n in changes)


# -- presence as the liveness signal of a daemon the RM did not start ------


@pytest.fixture
def space():
    """A LASS on node1 and a watcher's handle subscribed to one daemon's
    presence, which records what it sees at its safe point."""
    with SimCluster.flat(["node1"]) as cluster:
        lass = AttributeSpaceServer(cluster.transport, "node1", role=ServerRole.LASS)
        watcher = tdp_init(
            cluster.transport, lass.endpoint, member="watcher", role=Role.RT,
            src_host="node1",
        )
        seen = []
        tdp_subscribe(
            watcher, "presence.paradynd/0",
            lambda n, _arg: seen.append((n.kind, n.value)),
        )
        try:
            yield cluster, lass, watcher, seen
        finally:
            watcher.close()
            lass.stop()


def announced(cluster, lass, **session):
    """A paradynd-like handle that has put its presence."""
    handle = tdp_init(
        cluster.transport, lass.endpoint, member="paradynd/0", role=Role.RT,
        src_host="node1", **session,
    )
    tdp_put(handle, Attr.presence("paradynd/0"), "node1", ephemeral=True)
    return handle


def serve_until(watcher, seen, count):
    """Service the watcher until it has seen ``count`` notifications."""
    while len(seen) < count:
        assert tdp_poll(watcher, 5.0), f"saw only {seen}"
        tdp_service_events(watcher)


def test_a_crashed_daemons_presence_goes_within_a_second(space):
    cluster, lass, watcher, seen = space
    daemon = announced(cluster, lass)
    serve_until(watcher, seen, 1)
    start = time.monotonic()
    daemon.lass.close(detach=False)  # the crash: no tdp_exit, no lease
    assert tdp_poll(watcher, 1.0)
    tdp_service_events(watcher)
    assert seen == [("put", "node1"), ("remove", None)]
    assert time.monotonic() - start < 1.0


def test_a_crashed_daemons_removal_waits_for_the_safe_point(space):
    cluster, lass, watcher, seen = space
    daemon = announced(cluster, lass)
    serve_until(watcher, seen, 1)
    daemon.lass.close(detach=False)
    assert tdp_poll(watcher, 5.0)  # the removal has arrived ...
    assert seen == [("put", "node1")]  # ... and waits for the safe point
    tdp_service_events(watcher)
    assert seen == [("put", "node1"), ("remove", None)]


def test_a_leased_daemon_resuming_inside_its_ttl_keeps_its_presence(space):
    cluster, lass, watcher, seen = space
    daemon = announced(
        cluster, lass, reconnect=ReconnectPolicy(base_delay=0.01, seed=3),
        lease_ttl=5.0,
    )
    tdp_subscribe(watcher, "resumed", lambda n, _arg: seen.append((n.kind, n.value)))
    try:
        session = daemon.lass._session
        with session._lock:
            channel = session._channel
        channel.close()  # the cut
        tdp_put(daemon, "resumed", "1")  # sent once the session is back
        assert any(
            r["event"] == "session.reestablished" and r["resumed"]
            for r in daemon.lass.session_log
        )
        serve_until(watcher, seen, 2)  # in the LASS's apply order
        assert seen == [("put", "node1"), ("put", "1")]
    finally:
        tdp_exit(daemon)
