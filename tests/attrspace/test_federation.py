"""Federation tests: LASS↔CASS hierarchy, aggregation, chaos.

Like the client/server module, this whole file doubles as a chaos
suite: with ``TDP_FAULTPLAN`` set (e.g. ``seed:42``) the transport
grows the fault-injection wrapper, the LASSes' upstream sessions and
the local clients become reconnecting sessions, and every test re-runs
against severed channels and delayed frames.  Exact-count assertions
(CASS egress arithmetic) are gated on the deterministic run; liveness
and convergence assertions hold in both modes.
"""

import os
import threading
import time

import pytest

from repro import errors
from repro.attrspace.client import AttributeSpaceClient, ReconnectPolicy
from repro.attrspace.federation import ShardMap, attribute_prefix
from repro.attrspace.lass import LassServer
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.net.address import Endpoint
from repro.net.topology import flat_network
from repro.transport.faultinject import from_env
from repro.transport.inmem import InMemoryTransport

CHAOS = bool(os.environ.get("TDP_FAULTPLAN"))

FAST = ReconnectPolicy(base_delay=0.02, max_delay=0.2, deadline=5.0, seed=7)

HOSTS = ["hub", "hostA", "hostB", "hostC", "submit"]


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture
def transport():
    return from_env(InMemoryTransport(flat_network(HOSTS)))


@pytest.fixture
def cass(transport):
    srv = AttributeSpaceServer(transport, "hub", role=ServerRole.CASS)
    yield srv
    srv.stop()


def make_lass(transport, host, upstream, **kwargs):
    if CHAOS:
        kwargs.setdefault("reconnect", FAST)
    return LassServer(transport, host, upstream=upstream, **kwargs)


def make_client(transport, src_host, server, *, context="job", member=None):
    member = member or f"client@{src_host}"
    if CHAOS:
        return AttributeSpaceClient.connect(
            transport, src_host, server.endpoint,
            context=context, member=member, reconnect=FAST, lease_ttl=30.0,
        )
    channel = transport.connect(src_host, server.endpoint, timeout=5.0)
    return AttributeSpaceClient(channel, context=context, member=member)


def drain(client, sink_len, expect, timeout=5.0):
    """Pump a client's event queue until ``sink_len()`` reaches expect."""
    deadline = time.monotonic() + timeout
    while sink_len() < expect and time.monotonic() < deadline:
        if client.wait_event(timeout=0.05):
            client.service_events()
    return sink_len()


# -- what the benchmark still times: ShardMap.owner ---------------------------


class TestShardMap:
    def test_attribute_prefix(self):
        assert attribute_prefix("proc.123.status") == "proc"
        assert attribute_prefix("flat") == "flat"

    def test_single_shard_routes_everything_to_zero(self):
        m = ShardMap(0, ["hub:7000"])
        assert m.owner("c", "anything.at.all") == 0

    def test_owner_is_deterministic_and_prefix_keyed(self):
        m1 = ShardMap(1, ["shard0:7000", "shard1:7000"])
        m2 = ShardMap(1, ["shard0:7000", "shard1:7000"])
        for attr in ("proc.1.pid", "proc.2.pid", "job.status", "x"):
            assert m1.owner("c", attr) == m2.owner("c", attr)
        # the whole proc.* family co-locates: same routing prefix
        assert m1.owner("c", "proc.1.pid") == m1.owner("c", "proc.2.rss")

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            ShardMap(0, [])


# -- aggregation semantics ----------------------------------------------------


class TestAggregation:
    def test_two_subscribers_one_upstream_sub(self, transport, cass):
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            a = make_client(transport, "hostA", lass, member="a")
            b = make_client(transport, "hostA", lass, member="b")
            sub_a = a.subscribe("job.*", lambda n, arg: None)
            sub_b = b.subscribe("job.*", lambda n, arg: None)
            lass.federation.settle()
            assert wait_until(lambda: len(cass.store.subscriptions) == 1)
            fed = lass.federation
            assert fed.counters["aggregated_subs"].value == 1

            # dropping one local subscriber keeps the aggregate alive
            assert a.unsubscribe(sub_a) is True
            lass.federation.settle()
            assert len(cass.store.subscriptions) == 1

            # the last one tears it down
            assert b.unsubscribe(sub_b) is True
            lass.federation.settle()
            assert wait_until(lambda: len(cass.store.subscriptions) == 0)
            a.close()
            b.close()
        finally:
            lass.stop()

    def test_connection_death_releases_interest(self, transport, cass):
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            a = make_client(transport, "hostA", lass, member="a")
            a.subscribe("job.*", lambda n, arg: None)
            lass.federation.settle()
            assert wait_until(lambda: len(cass.store.subscriptions) == 1)
            a.close()  # detach; _cleanup releases the connection's interests
            lass.federation.settle()
            assert wait_until(lambda: len(cass.store.subscriptions) == 0)
        finally:
            lass.stop()

    def test_overlapping_patterns_one_egress_frame(self, transport, cass):
        """Two distinct overlapping patterns on one host share the host's
        dedup group at the CASS: one event, one egress frame."""
        lass_b = make_lass(transport, "hostB", cass.endpoint)
        lass_a = make_lass(transport, "hostA", cass.endpoint)
        try:
            wide, narrow = [], []
            b1 = make_client(transport, "hostB", lass_b, member="wide")
            b2 = make_client(transport, "hostB", lass_b, member="narrow")
            b1.subscribe("job.*", lambda n, arg: wide.append(n))
            b2.subscribe("job.status*", lambda n, arg: narrow.append(n))
            lass_b.federation.settle()
            assert wait_until(lambda: len(cass.store.subscriptions) == 2)
            before = cass.stats["notifications"].value

            writer = make_client(transport, "hostA", lass_a, member="writer")
            writer.put("job.status.0", "running")
            lass_a.federation.settle()

            assert drain(b1, lambda: len(wide), 1) == 1
            assert drain(b2, lambda: len(narrow), 1) == 1
            assert wide[0].origin == "lass:hostA"
            if not CHAOS:
                # both aggregated subs matched, but the group collapsed
                # the delivery to ONE frame down to hostB
                assert cass.stats["notifications"].value - before == 1
                assert (
                    lass_b.federation.counters["upstream_notifies"].value == 1
                )
            writer.close()
            b1.close()
            b2.close()
        finally:
            lass_a.stop()
            lass_b.stop()


# -- write-through, miss forwarding, deadlines --------------------------------


class TestForwarding:
    def test_write_through_visible_cross_host(self, transport, cass):
        lass_a = make_lass(transport, "hostA", cass.endpoint)
        lass_b = make_lass(transport, "hostB", cass.endpoint)
        try:
            a = make_client(transport, "hostA", lass_a, member="a")
            b = make_client(transport, "hostB", lass_b, member="b")
            a.put("pid", "4711")
            # the writer's own host answers from its cache immediately
            assert a.try_get("pid") == "4711"
            lass_a.federation.settle()
            # the CASS holds the forwarded copy
            assert wait_until(
                lambda: "pid" in cass.store.contexts() or True
            )
            assert cass.store.try_get("pid", context="job") == "4711"
            # a remote host's miss forwards upstream and caches the answer
            assert b.try_get("pid") == "4711"
            assert lass_b.store.try_get("pid", context="job") == "4711"
            assert lass_b.federation.counters["forwarded_gets"].value >= 1
            a.close()
            b.close()
        finally:
            lass_a.stop()
            lass_b.stop()

    def test_remove_forwards_even_on_local_miss(self, transport, cass):
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            # seed the CASS directly: the LASS never cached this one
            direct = make_client(transport, "submit", cass, member="seed")
            direct.put("orphan", "1")
            a = make_client(transport, "hostA", lass, member="a")
            assert a.remove("orphan") is False  # not cached locally
            lass.federation.settle()
            with pytest.raises(errors.NoSuchAttributeError):
                direct.try_get("orphan")
            a.close()
            direct.close()
        finally:
            lass.stop()

    def test_batch_forwards_writes(self, transport, cass):
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            a = make_client(transport, "hostA", lass, member="a")
            a.put_many([("m.1", "x"), ("m.2", "y")])
            lass.federation.settle()
            assert cass.store.try_get("m.1", context="job") == "x"
            assert cass.store.try_get("m.2", context="job") == "y"
            a.close()
        finally:
            lass.stop()

    def test_ephemeral_rides_upstream_lease(self, transport, cass):
        """A forwarded ephemeral belongs to the LASS's upstream member, so
        detaching the writer's context purges it at the CASS too."""
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            a = make_client(transport, "hostA", lass, member="a")
            a.put("beat", "x", ephemeral=True)
            lass.federation.settle()
            assert cass.store.try_get("beat", context="job") == "x"
            a.close()  # detach purges locally; the purge forwards as removes
            lass.federation.settle()
            assert wait_until(
                lambda: not _has(cass.store, "beat", "job")
            )
        finally:
            lass.stop()

    def test_blocking_get_deadline_runs_at_the_cass(self, transport, cass):
        """The bugfix: the client's deadline rides upstream, the CASS timer
        bounds the wait — no local LASS timer races it."""
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            a = make_client(transport, "hostA", lass, member="a")
            started = time.monotonic()
            with pytest.raises(errors.GetTimeoutError):
                a.get("ghost", timeout=0.4)
            assert time.monotonic() - started >= 0.3
            # the waiter was parked upstream, not answered locally
            assert cass.stats["blocked_gets"].value >= 1
            assert lass.stats["blocked_gets"].value >= 1
            a.close()
        finally:
            lass.stop()

    def test_blocking_get_satisfied_by_remote_put(self, transport, cass):
        lass_a = make_lass(transport, "hostA", cass.endpoint)
        lass_b = make_lass(transport, "hostB", cass.endpoint)
        try:
            import threading

            b = make_client(transport, "hostB", lass_b, member="b")
            result = {}

            def blocked():
                result["v"] = b.get("late.answer", timeout=10.0)

            t = threading.Thread(target=blocked)
            t.start()
            # wait for the forwarded get to park a waiter at the CASS
            assert wait_until(lambda: cass.store.pending_waiter_count(context="job") > 0)
            a = make_client(transport, "hostA", lass_a, member="a")
            a.put("late.answer", "42")
            t.join(timeout=10.0)
            assert not t.is_alive()
            assert result["v"] == "42"
            # and the answer is now cached on the reader's host
            assert lass_b.store.try_get("late.answer", context="job") == "42"
            a.close()
            b.close()
        finally:
            lass_a.stop()
            lass_b.stop()

    def test_severed_upstream_replays_blocking_get(self, transport, cass):
        """Second half of the bugfix: an upstream outage shorter than the
        reconnect deadline re-parks the forwarded get after re-attach
        instead of surfacing a timeout the client never earned."""
        import threading

        lass = make_lass(transport, "hostA", cass.endpoint, reconnect=FAST)
        try:
            b = make_client(transport, "hostA", lass, member="b")
            result = {}

            def blocked():
                result["v"] = b.get("late.answer", timeout=30.0)

            t = threading.Thread(target=blocked)
            t.start()
            assert wait_until(lambda: cass.store.pending_waiter_count(context="job") > 0)

            # cut the LASS's upstream session mid-wait
            upstream = next(iter(lass.federation._sessions.values()))
            with upstream._session._lock:
                channel = upstream._session._channel
            channel.close()
            # the reconnect replays the pending async get: a waiter parks
            # again upstream (same lease, deduped by req id)
            assert wait_until(lambda: cass.store.pending_waiter_count(context="job") > 0)

            direct = make_client(transport, "submit", cass, member="seed")
            direct.put("late.answer", "42")
            t.join(timeout=10.0)
            assert not t.is_alive()
            assert result.get("v") == "42"
            direct.close()
            b.close()
        finally:
            lass.stop()

    def test_forwards_reach_the_cass_in_local_apply_order(
        self, transport, cass, monkeypatch
    ):
        """500 interleaved puts, removes and batches on one context are
        applied at the CASS in the order the LASS applied them — also
        across upstream severs, whose replay must not be overtaken by a
        forward submitted while the session re-attaches."""
        import random

        N = 500
        lass = make_lass(transport, "hostA", cass.endpoint, reconnect=FAST)
        applied = {"lass": [], "cass": []}
        for side, store in (("lass", lass.store), ("cass", cass.store)):
            _record_writes(monkeypatch, store, applied[side])
        try:
            rng = random.Random(26)
            a = make_client(transport, "hostA", lass, member="a")
            for i in range(N):
                key = f"o.{rng.randrange(8)}"
                roll = rng.random()
                if roll < 0.45:
                    a.put(key, str(i))
                elif roll < 0.75:
                    a.remove(key)
                else:
                    with a.batch() as batch:
                        batch.put(key, str(i))
                        batch.remove(f"o.{rng.randrange(8)}")
                        batch.put(f"o.{rng.randrange(8)}", f"{i}b")
                if i % 125 == 62:
                    (upstream,) = lass.federation._sessions.values()
                    with upstream._session._lock:
                        channel = upstream._session._channel
                    channel.close()
            lass.federation.settle(timeout=15.0)
            assert len(applied["lass"]) >= N
            assert applied["cass"] == applied["lass"]
            a.close()
        finally:
            lass.stop()


def _record_writes(monkeypatch, store, log):
    """Append every ``o.*`` put/remove ``store`` is asked to apply, in
    call order, to ``log``."""
    put, remove, apply_batch = store.put, store.remove, store.apply_batch

    def note(op, attribute, value=None):
        if str(attribute).startswith("o."):
            log.append((op, attribute, value))

    def recording_put(attribute, value, **kwargs):
        note("put", attribute, value)
        return put(attribute, value, **kwargs)

    def recording_remove(attribute, **kwargs):
        note("remove", attribute)
        return remove(attribute, **kwargs)

    def recording_batch(ops, **kwargs):
        for sub in ops:
            note(sub.get("op"), sub.get("attribute", ""), sub.get("value"))
        return apply_batch(ops, **kwargs)

    monkeypatch.setattr(store, "put", recording_put)
    monkeypatch.setattr(store, "remove", recording_remove)
    monkeypatch.setattr(store, "apply_batch", recording_batch)


def _has(store, attribute, context):
    try:
        store.try_get(attribute, context=context)
    except errors.TdpError:
        return False
    return True


# -- the session table: one upstream session per context ----------------------


class TestSessionTable:
    def test_fresh_lass_dials_upstream_once_per_context(
        self, transport, cass, monkeypatch
    ):
        dials = []
        connect = transport.connect

        def counting(src, dst, *args, **kwargs):
            if src == "hostA" and dst == cass.endpoint:
                dials.append(dst)
            return connect(src, dst, *args, **kwargs)

        monkeypatch.setattr(transport, "connect", counting)
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            a = make_client(transport, "hostA", lass, member="a")
            a.put("x", "1")
            a.subscribe("x*", lambda n, arg: None)
            with pytest.raises(errors.NoSuchAttributeError):
                a.try_get("ghost")
            lass.federation.settle()
            assert len(lass.federation._sessions) == 1
            if not CHAOS:
                assert len(dials) == 1

            other = make_client(
                transport, "hostA", lass, context="job2", member="o"
            )
            other.put("y", "1")
            lass.federation.settle()
            assert len(lass.federation._sessions) == 2
            if not CHAOS:
                assert len(dials) == 2
            other.close()
            a.close()
        finally:
            lass.stop()

    def test_flapping_upstream_leaves_no_thread_or_session_behind(
        self, transport, cass, monkeypatch
    ):
        """An upstream whose sessions end 20 times (each outage outlasts
        the reconnect policy, so the next forward dials a fresh session)
        leaves one live session and no thread — nothing of the 20
        dropped ones, whose recovery threads end with their outages."""
        ROUNDS = 20
        gate = threading.Event()
        gate.set()
        connect = transport.connect

        def gated(src, dst, *args, **kwargs):
            if src == "hostA" and dst == cass.endpoint and not gate.is_set():
                raise errors.ConnectError("upstream held shut")
            return connect(src, dst, *args, **kwargs)

        monkeypatch.setattr(transport, "connect", gated)
        lass = make_lass(
            transport, "hostA", cass.endpoint,
            reconnect=ReconnectPolicy(base_delay=0.005, max_delay=0.01, max_attempts=2),
        )
        try:
            fed = lass.federation
            a = make_client(transport, "hostA", lass, member="a")
            for i in range(ROUNDS):
                a.put(f"ok.{i}", "1")  # dials the context's session if none
                fed.settle(timeout=15.0)
                (upstream,) = fed._sessions.values()
                gate.clear()
                with upstream._session._lock:
                    channel = upstream._session._channel
                channel.close()
                assert wait_until(lambda: upstream.events.closed)  # policy gave up
                gate.set()
            a.put("after", "1")  # the failing submit drops the last dead one
            fed.settle(timeout=15.0)
            assert wait_until(lambda: _has(cass.store, "after", "job"))
            assert fed.counters["sessions_dropped"].value >= ROUNDS
            assert len(fed._sessions) == 1
            assert wait_until(lambda: not _upstream_threads("hostA"))
            a.close()
        finally:
            lass.stop()
        assert wait_until(lambda: not _upstream_threads("hostA"))

    def test_no_upstream_thread_and_no_federation_thread(
        self, transport, cass
    ):
        """The thread census: a LASS with upstream sessions for K contexts
        runs no upstream thread — in memory the CASS's sends route each
        reply and notification — and the federation has no thread of its
        own."""
        K = 3
        lass = make_lass(transport, "hostA", cass.endpoint)
        clients = []
        try:
            for k in range(K):
                c = make_client(
                    transport, "hostA", lass, context=f"ctx{k}", member=f"c{k}"
                )
                clients.append(c)
                c.put("x", str(k))
                c.subscribe("x*", lambda n, arg: None)
                with pytest.raises(errors.NoSuchAttributeError):
                    c.try_get("ghost")
            lass.federation.settle()
            sessions = lass.federation._sessions
            assert sorted(sessions) == [f"ctx{k}" for k in range(K)]
            # an outage's recovery thread (seeded chaos) ends with it
            for thread in _upstream_threads("hostA"):
                thread.join(timeout=10.0)
            assert _upstream_threads("hostA") == []
            assert not [
                t.name for t in threading.enumerate()
                if t.name.startswith("federation-")
            ]
        finally:
            for c in clients:
                c.close()
            lass.stop()


def _upstream_threads(host):
    """The live threads of ``host``'s upstream sessions (recovery only)."""
    return [
        t for t in threading.enumerate()
        if t.name == f"attr-client-lass:{host}" and t.is_alive()
    ]


# -- fan-out economics: CASS egress is O(hosts) -------------------------------


class TestFanoutEconomics:
    def test_cass_egress_one_frame_per_host(self, transport, cass):
        """K puts from hostA, subscribers on A, B and C: the CASS emits
        exactly K×(hosts−1) frames — the origin host is suppressed, every
        other host gets ONE frame per event however many local
        subscribers it fans to."""
        SUBS_PER_HOST = 5
        K = 10
        lasses = {
            h: make_lass(transport, h, cass.endpoint)
            for h in ("hostA", "hostB", "hostC")
        }
        clients = []
        try:
            sinks = {}
            for host, lass in lasses.items():
                for i in range(SUBS_PER_HOST):
                    c = make_client(
                        transport, host, lass, member=f"sub{i}@{host}"
                    )
                    sink = []
                    c.subscribe("storm.*", lambda n, arg, s=sink: s.append(n))
                    clients.append(c)
                    sinks[(host, i)] = (c, sink)
                lass.federation.settle()
            assert wait_until(lambda: len(cass.store.subscriptions) == 3)
            before = cass.stats["notifications"].value

            writer = make_client(
                transport, "hostA", lasses["hostA"], member="writer"
            )
            clients.append(writer)
            for k in range(K):
                writer.put(f"storm.{k}", str(k))
            lasses["hostA"].federation.settle()

            # every subscriber on every host sees all K events
            for (host, i), (c, sink) in sinks.items():
                assert drain(c, lambda s=sink: len(s), K, timeout=10.0) == K

            if not CHAOS:
                egress = cass.stats["notifications"].value - before
                assert egress == K * 2  # hostB + hostC; origin suppressed
                for host in ("hostB", "hostC"):
                    fed = lasses[host].federation
                    assert fed.counters["upstream_notifies"].value == K
                # hostA's fan-out never crossed the wire at all
                assert (
                    lasses["hostA"].federation.counters[
                        "upstream_notifies"
                    ].value
                    == 0
                )
        finally:
            for c in clients:
                c.close()
            for lass in lasses.values():
                lass.stop()


# -- chaos: a LASS severed mid-storm ------------------------------------------


class TestChaos:
    def test_lass_severed_mid_storm_recovers(self, transport, cass):
        """Cut the origin LASS's upstream session in the middle of a put
        storm: the reconnect replays the un-acked forwards, the aggregated
        subscriptions re-establish from the client ledger, and the system
        converges — every put lands at the CASS and the remote subscriber
        is still live afterwards."""
        K = 30
        lass_a = make_lass(transport, "hostA", cass.endpoint, reconnect=FAST)
        lass_b = make_lass(transport, "hostB", cass.endpoint, reconnect=FAST)
        try:
            seen = []
            b = make_client(transport, "hostB", lass_b, member="b")
            b.subscribe("storm.*", lambda n, arg: seen.append(n.attribute))
            lass_b.federation.settle()
            assert wait_until(lambda: len(cass.store.subscriptions) >= 1)

            writer = make_client(transport, "hostA", lass_a, member="writer")
            for k in range(K):
                writer.put(f"storm.{k}", str(k))
                if k == K // 2:
                    # mid-storm: sever whatever upstream session exists
                    for upstream in list(
                        lass_a.federation._sessions.values()
                    ):
                        with upstream._session._lock:
                            channel = upstream._session._channel
                        channel.close()
            lass_a.federation.settle(timeout=15.0)

            # convergence: every forwarded write landed upstream
            for k in range(K):
                assert wait_until(
                    lambda k=k: _has(cass.store, f"storm.{k}", "job"),
                    timeout=10.0,
                ), f"storm.{k} never reached the CASS"

            # the remote subscriber is still live: a fresh event arrives
            writer.put("storm.done", "1")
            lass_a.federation.settle()
            assert wait_until(
                lambda: drain(b, lambda: len(seen), len(seen) + 1,
                              timeout=0.2) > 0 and "storm.done" in seen,
                timeout=10.0,
            )
            assert lass_a.federation.counters["forwards"].value >= K
            writer.close()
            b.close()
        finally:
            lass_a.stop()
            lass_b.stop()


# -- delivery: server-internal on the receive thread, tools at safe points -----


class TestDeliverySplit:
    def test_aggregated_notify_applies_without_service_events(
        self, transport, cass
    ):
        """An aggregated notification reaches the LASS store with nobody
        calling ``service_events``; a plain ``subscribe`` callback on the
        same upstream session still runs only inside ``service_events``
        (the safe-point rule for tools, Section 3.3)."""
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            a = make_client(transport, "hostA", lass, member="a")
            a.subscribe("k*", lambda n, arg: None)  # makes the aggregate
            lass.federation.settle()
            assert wait_until(lambda: len(cass.store.subscriptions) == 1)
            upstream = lass.federation._sessions["job"]
            plain = []
            upstream.subscribe("k*", lambda n, arg: plain.append(n.value))

            direct = make_client(transport, "submit", cass, member="seed")
            direct.put("k", "1")
            assert wait_until(lambda: _has(lass.store, "k", "job"))
            assert lass.store.try_get("k", context="job") == "1"
            assert wait_until(upstream.has_pending_events)
            assert plain == []
            assert upstream.service_events() == 1
            assert plain == ["1"]
            direct.close()
            a.close()
        finally:
            lass.stop()


# -- the tdp.stats.* surface ----------------------------------------------------


class TestStatsSurface:
    def test_lass_publishes_federation_stats(self, transport, cass):
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            a = make_client(transport, "hostA", lass, member="a")
            a.put("x", "1")
            lass.federation.settle()
            lass._publish_stats("job")
            assert int(a.try_get("tdp.stats.federation.forwards")) >= 1
            a.close()
        finally:
            lass.stop()


# -- only what applied locally is forwarded; a failed forward costs only itself --


class TestRejectedWritesStayLocal:
    def test_loop_keeps_serving_after_a_failed_forward(
        self, transport, cass, monkeypatch
    ):
        """A rejected batch sub-op and a forward that raises run on the
        LASS's serving loop; neither costs it a later request."""
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            fed = lass.federation
            a = make_client(transport, "hostA", lass, member="a")
            (reply,) = a._batch_rpc([{"op": "put"}])
            assert reply["ok"] is False
            monkeypatch.setattr(fed, "_write_frame", lambda *args: 1 / 0)
            a.put("lost", "1")
            a.remove("lost")
            monkeypatch.undo()

            seen = []
            b = make_client(transport, "hostA", lass, member="b")
            b.subscribe("after*", lambda n, arg: seen.append(n.value))
            a.put("after", "1")
            assert a.try_get("after") == "1"
            assert drain(b, lambda: len(seen), 1) == 1
            fed.settle()
            assert cass.store.try_get("after", context="job") == "1"
            assert not _has(cass.store, "lost", "job")
            a.close()
            b.close()
        finally:
            lass.stop()

    def test_rejected_sub_op_is_not_forwarded(self, transport, cass):
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            seen = []
            a = make_client(transport, "hostA", lass, member="a")
            a.subscribe("w.*", lambda n, arg: seen.append(n.attribute))
            lass.federation.settle()
            assert wait_until(lambda: len(cass.store.subscriptions) == 1)

            bad, good = a._batch_rpc([
                {"op": "put", "attribute": "y", "value": 5},
                {"op": "put", "attribute": "z", "value": "ok"},
            ])
            assert bad["ok"] is False and good["ok"] is True
            lass.federation.settle()
            assert cass.store.try_get("z", context="job") == "ok"
            assert not _has(cass.store, "y", "job")
            counters = lass.federation.counters
            if not CHAOS:
                assert counters["forwards"].value == 1
                assert counters["sessions_dropped"].value == 0
            assert counters["forward_failures"].value == 0

            # the aggregated subscription riding that session still delivers
            direct = make_client(transport, "submit", cass, member="seed")
            direct.put("w.1", "v")
            assert drain(a, lambda: len(seen), 1) == 1
            direct.close()
            a.close()
        finally:
            lass.stop()

    def test_forward_that_raises_while_built_is_counted(
        self, transport, cass, monkeypatch
    ):
        lass = make_lass(transport, "hostA", cass.endpoint)
        try:
            fed = lass.federation
            a = make_client(transport, "hostA", lass, member="a")
            monkeypatch.setattr(fed, "_write_frame", lambda *args: 1 / 0)
            a.put("lost", "1")  # applied locally all the same
            assert a.try_get("lost") == "1"
            a.put_many([("lost.1", "x"), ("lost.2", "y")])
            fed.settle()
            assert fed.counters["forward_failures"].value == 3
            assert fed.counters["forwards"].value == 0
            monkeypatch.undo()
            a.put("kept", "1")
            fed.settle()
            assert cass.store.try_get("kept", context="job") == "1"
            assert fed.counters["forwards"].value == 1
            a.close()
        finally:
            lass.stop()


# -- the degenerate configuration: an upstream nobody is listening on ----------


class TestUnreachableUpstream:
    def test_serves_locally_then_forwards_once_the_cass_listens(self, transport):
        lass = make_lass(transport, "hostA", Endpoint("hub", 7000))
        cass = None
        try:
            seen = []
            a = make_client(transport, "hostA", lass, member="a")
            a.subscribe("k*", lambda n, arg: seen.append(n.value))
            a.put("k", "1")
            assert a.try_get("k") == "1"
            assert drain(a, lambda: len(seen), 1) == 1
            assert [r["ok"] for r in a._batch_rpc([
                {"op": "put", "attribute": "k2", "value": "2"},
                {"op": "get", "attribute": "k2"},
            ])] == [True, True]
            lass.federation.settle(timeout=30.0)
            assert lass.federation.counters["forward_failures"].value >= 2
            assert lass.federation.counters["forwards"].value == 0
            # a miss is answered with an error, not parked forever
            with pytest.raises(errors.TdpError):
                a.try_get("ghost")

            cass = AttributeSpaceServer(
                transport, "hub", port=7000, role=ServerRole.CASS
            )
            a.put("late", "3")
            lass.federation.settle(timeout=30.0)
            assert wait_until(lambda: _has(cass.store, "late", "job"))
            a.close()
        finally:
            lass.stop()
            if cass is not None:
                cass.stop()


# -- ROADMAP, "A coherence contract for the two-tier space": confirmed holes ----

COHERENCE = "ROADMAP: A coherence contract for the two-tier space"


class TestCoherenceHoles:
    @pytest.mark.xfail(strict=True, reason=COHERENCE)
    def test_filled_miss_sees_a_later_remote_overwrite(self, transport, cass):
        """A miss answered upstream lands via ``store.fill`` and stays
        cached with no upstream interest registered, so host B keeps
        answering the old value after host A overwrites it."""
        lass_a = make_lass(transport, "hostA", cass.endpoint)
        lass_b = make_lass(transport, "hostB", cass.endpoint)
        try:
            a = make_client(transport, "hostA", lass_a, member="a")
            b = make_client(transport, "hostB", lass_b, member="b")
            a.put("x", "1")
            lass_a.federation.settle()
            assert b.try_get("x") == "1"  # miss, forwarded, filled
            a.put("x", "2")
            lass_a.federation.settle()
            assert cass.store.try_get("x", context="job") == "2"
            try:
                assert wait_until(lambda: b.try_get("x") == "2", timeout=1.0)
            finally:
                a.close()
                b.close()
        finally:
            lass_a.stop()
            lass_b.stop()

    @pytest.mark.xfail(strict=True, reason=COHERENCE)
    def test_change_during_an_upstream_gap_is_reread(
        self, transport, cass, monkeypatch
    ):
        """The CASS's ``_cleanup`` unsubscribes a dead connection's
        aggregates, so a change made while host A's upstream session is
        down is never notified; the session re-establishes its ledger and
        later events flow, but nothing re-reads what the gap hid."""
        lass = make_lass(transport, "hostA", cass.endpoint, reconnect=FAST)
        gate = threading.Event()
        gate.set()
        connect = transport.connect

        def gated(src, dst, *args, **kwargs):
            if src == "hostA" and dst == cass.endpoint and not gate.is_set():
                raise errors.ConnectError("upstream held shut")
            return connect(src, dst, *args, **kwargs)

        monkeypatch.setattr(transport, "connect", gated)
        try:
            seen = []
            a = make_client(transport, "hostA", lass, member="a")
            a.subscribe("k*", lambda n, arg: seen.append(n.attribute))
            lass.federation.settle()
            assert wait_until(lambda: len(cass.store.subscriptions) == 1)
            direct = make_client(transport, "submit", cass, member="seed")
            direct.put("k", "1")
            assert drain(a, lambda: len(seen), 1) == 1
            assert a.try_get("k") == "1"

            gate.clear()
            upstream = next(iter(lass.federation._sessions.values()))
            with upstream._session._lock:
                channel = upstream._session._channel
            channel.close()
            assert wait_until(lambda: len(cass.store.subscriptions) == 0)
            direct.put("k", "2")
            gate.set()

            # the ledger re-created the aggregate: later events arrive
            assert wait_until(lambda: len(cass.store.subscriptions) == 1)
            direct.put("k.other", "x")
            assert wait_until(
                lambda: drain(a, lambda: len(seen), len(seen) + 1, timeout=0.2)
                and "k.other" in seen
            )
            try:
                assert wait_until(lambda: a.try_get("k") == "2", timeout=1.0)
            finally:
                direct.close()
                a.close()
        finally:
            lass.stop()

    @pytest.mark.xfail(strict=True, reason=COHERENCE)
    def test_subscriber_only_host_hears_a_cass_that_starts_late(self, transport):
        """With the upstream not listening at subscribe time the aggregate
        is "deferred to session restore", and with no write or miss on the
        context nothing ever dials again: the host stays blind."""
        lass = make_lass(transport, "hostA", Endpoint("hub", 7000))
        cass = None
        try:
            seen = []
            a = make_client(transport, "hostA", lass, member="a")
            a.subscribe("k*", lambda n, arg: seen.append(n.value))
            lass.federation.settle(timeout=30.0)
            assert lass.federation.counters["sessions_opened"].value == 0

            cass = AttributeSpaceServer(
                transport, "hub", port=7000, role=ServerRole.CASS
            )
            direct = make_client(transport, "submit", cass, member="seed")
            direct.put("k", "1")
            try:
                assert drain(a, lambda: len(seen), 1, timeout=1.5) == 1
            finally:
                direct.close()
                a.close()
        finally:
            lass.stop()
            if cass is not None:
                cass.stop()
