"""Session recovery: reconnecting clients, leases, replay dedup, chaos."""

import threading
import time

import pytest

from repro import errors
from repro.attrspace import protocol
from repro.attrspace.client import AttributeSpaceClient, ReconnectPolicy
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.net.topology import flat_network
from repro.transport.faultinject import FaultInjectTransport, FaultPlan
from repro.transport.inmem import InMemoryTransport

FAST = ReconnectPolicy(base_delay=0.01, max_delay=0.1, deadline=5.0, seed=7)


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def reestablished(client):
    return sum(1 for r in client.session_log if r["event"] == "session.reestablished")


def sever(client):
    """Close the client's live channel — the simulated network cut.

    _channel is lock-guarded (guards.lock.json) and the runtime witness
    flags bare peeks, so snapshot it under the lock and close outside.
    """
    with client._session._lock:
        channel = client._session._channel
    channel.close()


@pytest.fixture
def transport():
    return InMemoryTransport(flat_network(["node1", "submit"]))


@pytest.fixture
def server(transport):
    srv = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
    yield srv
    srv.stop()


def reconnecting_client(transport, server, *, member="m", lease_ttl=30.0, policy=FAST):
    return AttributeSpaceClient.connect(
        transport, "submit", server.endpoint,
        context="job", member=member, reconnect=policy, lease_ttl=lease_ttl,
    )


def raw_client(transport, server, *, member="raw"):
    channel = transport.connect("submit", server.endpoint, timeout=5.0)
    return AttributeSpaceClient(channel, context="job", member=member)


class TestReconnect:
    def test_session_survives_severed_channel(self, transport, server):
        client = reconnecting_client(transport, server)
        try:
            client.put("stable", "1")
            client.put("beat", "x", ephemeral=True)
            seen = []
            client.subscribe("watch*", lambda n, arg: seen.append((n.attribute, n.value)))

            sever(client)  # the network cut
            assert wait_until(lambda: reestablished(client) == 1)
            record = next(
                r for r in client.session_log if r["event"] == "session.reestablished"
            )
            assert record["resumed"] is True

            # State survived: plain and ephemeral attributes, and the
            # subscription delivers for post-recovery puts.
            assert client.get("stable", timeout=5.0) == "1"
            assert client.try_get("beat") == "x"
            client.put("watch.1", "y")
            assert wait_until(lambda: client.has_pending_events())
            client.service_events()
            assert ("watch.1", "y") in seen
            assert server.stats["resumed_sessions"].value >= 1
        finally:
            client.close()

    def test_session_event_callback_delivered_at_safe_point(self, transport, server):
        client = reconnecting_client(transport, server)
        try:
            events = []
            client.on_session_event(lambda record: events.append(record["event"]))
            sever(client)
            assert wait_until(lambda: reestablished(client) == 1)
            assert wait_until(lambda: client.has_pending_events())
            client.service_events()
            assert "session.lost" in events and "session.reestablished" in events
        finally:
            client.close()

    def test_blocked_get_completes_across_sever(self, transport, server):
        client = reconnecting_client(transport, server)
        writer = raw_client(transport, server, member="writer")
        result = {}
        try:
            def blocked():
                result["value"] = client.get("late", timeout=None)

            t = threading.Thread(target=blocked)
            t.start()
            assert wait_until(lambda: server.stats["blocked_gets"].value >= 1)

            sever(client)  # sever while the get is parked
            assert wait_until(lambda: reestablished(client) == 1)

            writer.put("late", "finally")
            t.join(timeout=5.0)
            assert not t.is_alive()
            assert result["value"] == "finally"
        finally:
            client.close()
            writer.close()

    def test_reconnect_gives_up_when_server_stays_down(self, transport, server):
        policy = ReconnectPolicy(base_delay=0.01, max_delay=0.05, deadline=0.4, seed=1)
        client = reconnecting_client(transport, server, policy=policy)
        try:
            client.put("a", "1")
            server.stop()
            with pytest.raises(errors.ReconnectFailedError):
                client.put("b", "2")
            # ReconnectFailedError IS a SpaceClosedError: legacy handlers
            # written for the fail-fast client keep working.
            assert issubclass(errors.ReconnectFailedError, errors.SpaceClosedError)
            assert any(r["event"] == "session.failed" for r in client.session_log)
        finally:
            client.close()  # must not hang with the server gone

    def test_close_mid_outage_does_not_block_on_backoff(self, transport, server):
        policy = ReconnectPolicy(base_delay=5.0, max_delay=5.0, deadline=60.0, seed=1)
        client = reconnecting_client(transport, server, policy=policy)
        client.put("a", "1")
        server.stop()
        assert wait_until(lambda: any(
            r["event"] == "session.lost" for r in client.session_log
        ))
        started = time.monotonic()
        client.close()
        assert time.monotonic() - started < 2.0  # not a 5 s backoff sleep


class TestLeases:
    def test_lease_expiry_purges_ephemeral_attributes(self, transport, server):
        client = reconnecting_client(transport, server, lease_ttl=0.2)
        witness = raw_client(transport, server, member="witness")
        try:
            client.put("stable", "1")
            client.put("beat", "x", ephemeral=True)
            assert witness.try_get("beat") == "x"

            # Vanish without detaching: the lease deadline armed at the
            # cut must reclaim the session once the TTL runs out.
            client.close(detach=False)
            assert wait_until(
                lambda: server.stats["expired_leases"].value >= 1, timeout=5.0
            )
            with pytest.raises(errors.NoSuchAttributeError):
                witness.try_get("beat")
            assert witness.try_get("stable") == "1"  # plain values persist
        finally:
            witness.close()

    def test_clean_detach_releases_lease_and_ephemerals(self, transport, server):
        client = reconnecting_client(transport, server)
        witness = raw_client(transport, server, member="witness")
        try:
            client.put("beat", "x", ephemeral=True)
            assert witness.try_get("beat") == "x"
            client.close()
            with pytest.raises(errors.NoSuchAttributeError):
                witness.try_get("beat")
            assert server._leases == {}
        finally:
            witness.close()

    @pytest.mark.parametrize("detach", [True, False], ids=["close", "crash"])
    @pytest.mark.parametrize("leased", [True, False], ids=["leased", "unleased"])
    def test_ephemeral_ends_with_its_session(self, transport, server, leased, detach):
        """However a session ends, its ephemerals end with it: at once,
        except a leased session cut without a detach, which keeps them
        its TTL long in case it resumes."""
        ttl = 0.3
        owner = (
            reconnecting_client(transport, server, member="owner", lease_ttl=ttl)
            if leased else raw_client(transport, server, member="owner")
        )
        witness = raw_client(transport, server, member="witness")

        def gone():
            try:
                witness.try_get("beat")
            except errors.NoSuchAttributeError:
                return True
            return False

        try:
            owner.put("beat", "x", ephemeral=True)
            ended = time.monotonic()
            owner.close(detach=detach)
            if leased and not detach:
                assert not gone()  # held for a resume
                assert wait_until(gone, timeout=5.0, interval=0.001)
                assert time.monotonic() - ended >= ttl
            else:
                assert wait_until(gone, timeout=1.0)
        finally:
            witness.close()

    def test_unleased_crash_drops_its_membership(self, transport, server):
        """The last member of a context crashes: the context is
        destroyed, and a get parked on it wakes with ContextError."""
        owner = raw_client(transport, server, member="owner")
        getter = transport.connect("submit", server.endpoint, timeout=5.0)
        try:
            getter.send({"op": "get", "req": 1, "context": "job",
                         "attribute": "never", "block": True, "timeout": None})
            assert wait_until(lambda: server.stats["blocked_gets"].value >= 1)
            owner.close(detach=False)
            with pytest.raises(errors.ContextError):
                protocol.raise_error(getter.recv(timeout=5.0))
            assert "job" not in server.store.contexts()
        finally:
            getter.close()

    def test_live_connection_keeps_lease_renewed(self, transport, server):
        # TTL far below the test duration: a lease's deadline is armed
        # only when its connection dies, so a live one never expires.
        client = reconnecting_client(transport, server, lease_ttl=0.1)
        try:
            client.put("beat", "x", ephemeral=True)
            time.sleep(0.5)
            assert client.try_get("beat") == "x"
            assert server.stats["expired_leases"].value == 0
        finally:
            client.close()


    @staticmethod
    def _attach(channel, token, ttl, req=1):
        channel.send({
            "op": "attach", "req": req, "context": "job", "member": "m",
            "session": token, "lease_ttl": ttl,
        })
        reply = channel.recv(timeout=5.0)
        assert reply["ok"] is True
        return reply

    def test_idle_session_cut_after_its_ttl_still_resumes(self, transport, server):
        """The TTL is the grace after the cut, however long the session
        sat idle before it: the deadline counts from the disconnect."""
        ttl = 0.5
        first = transport.connect("submit", server.endpoint, timeout=5.0)
        assert self._attach(first, "tok-idle", ttl)["resumed"] is False
        time.sleep(0.95)  # idle for almost two TTLs on a live connection
        first.close()  # the cut
        time.sleep(0.15)  # reconnect well inside the grace

        second = transport.connect("submit", server.endpoint, timeout=5.0)
        try:
            assert self._attach(second, "tok-idle", ttl, req=2)["resumed"] is True
            assert server.stats["expired_leases"].value == 0
        finally:
            second.close()

    def test_expiry_comes_no_sooner_than_the_ttl_after_the_cut(
        self, transport, server
    ):
        ttl = 0.3
        witness = raw_client(transport, server, member="witness")
        channel = transport.connect("submit", server.endpoint, timeout=5.0)
        try:
            self._attach(channel, "tok-cut", ttl)
            channel.send({"op": "put", "req": 2, "context": "job",
                          "attribute": "beat", "value": "x", "ephemeral": True})
            assert channel.recv(timeout=5.0)["ok"] is True
            time.sleep(2 * ttl)  # idle past the TTL before the cut

            cut = time.monotonic()
            channel.close()
            assert wait_until(
                lambda: server.stats["expired_leases"].value >= 1, timeout=5.0,
                interval=0.001,
            )
            assert time.monotonic() - cut >= ttl
            with pytest.raises(errors.NoSuchAttributeError):
                witness.try_get("beat")
        finally:
            witness.close()

    def test_detach_after_the_cut_disarms_the_expiry(self, transport, server):
        first = transport.connect("submit", server.endpoint, timeout=5.0)
        self._attach(first, "tok-gone", 30.0)
        first.close()
        assert wait_until(lambda: "tok-gone" in server._lease_expiries)

        # The out-of-band detach a closing client sends mid-outage.
        second = transport.connect("submit", server.endpoint, timeout=5.0)
        try:
            second.send({"op": "detach", "req": 1, "context": "job",
                         "member": "m", "session": "tok-gone"})
            assert second.recv(timeout=5.0)["ok"] is True
            assert server._leases == {} and server._lease_expiries == {}
        finally:
            second.close()


class TestReplayDedup:
    def test_replayed_request_is_answered_from_cache(self, transport, server):
        channel = transport.connect("submit", server.endpoint, timeout=5.0)
        try:
            channel.send({
                "op": "attach", "req": 1, "context": "job", "member": "m",
                "session": "tok-1", "lease_ttl": 30.0,
            })
            assert channel.recv(timeout=5.0)["ok"] is True

            put = {"op": "put", "req": 2, "context": "job",
                   "attribute": "a", "value": "1"}
            channel.send(put)
            first = channel.recv(timeout=5.0)
            assert first["version"] == 1

            channel.send(dict(put))  # the retransmission
            second = channel.recv(timeout=5.0)
            assert second["version"] == 1  # cached, not re-executed
            assert server.stats["replayed_replies"].value == 1

            channel.send({"op": "put", "req": 3, "context": "job",
                          "attribute": "a", "value": "2"})
            assert channel.recv(timeout=5.0)["version"] == 2
        finally:
            channel.close()

    def test_resumed_attach_reports_resumption(self, transport, server):
        first = transport.connect("submit", server.endpoint, timeout=5.0)
        first.send({
            "op": "attach", "req": 1, "context": "job", "member": "m",
            "session": "tok-2", "lease_ttl": 30.0,
        })
        assert first.recv(timeout=5.0).get("resumed") is False
        first.close()

        second = transport.connect("submit", server.endpoint, timeout=5.0)
        try:
            second.send({
                "op": "attach", "req": 2, "context": "job", "member": "m",
                "session": "tok-2", "lease_ttl": 30.0,
            })
            reply = second.recv(timeout=5.0)
            assert reply["ok"] is True
            assert reply["resumed"] is True
        finally:
            second.close()


class TestSeededChaos:
    def test_chaos_run_is_survivable_and_forces_reconnects(self):
        base = InMemoryTransport(flat_network(["node1", "submit"]))
        # Severs and delays only: a silent drop on a *live* channel is
        # indistinguishable from a slow server and unrecoverable by any
        # replay protocol (the module docstring's default-mix rationale).
        plan = FaultPlan(seed=5, sever_rate=0.12, delay_rate=0.2,
                         delay_seconds=0.001)
        transport = FaultInjectTransport(base, plan)
        server = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
        client = AttributeSpaceClient.connect(
            transport, "submit", server.endpoint,
            context="job", member="chaos", reconnect=FAST, lease_ttl=30.0,
        )
        try:
            for i in range(40):
                assert client.put(f"k{i}", str(i)) >= 1
            snapshot = client.snapshot()
            for i in range(40):
                assert snapshot[f"k{i}"] == str(i)
            # The plan must actually have bitten, including at least one
            # sever (else this test exercises nothing).
            assert transport.fault_counts["sever"].value >= 1
            assert reestablished(client) >= 1
        finally:
            client.close()
            server.stop()

    def test_chaos_with_field_witness_live(self, monkeypatch):
        """Seeded chaos (TDP_FAULTPLAN=seed:42) with the guard witness armed.

        The chaos plan forces reconnect paths, lease deadlines, and
        cross-thread session churn — the exact traffic the guard
        manifest claims is lock-disciplined.  With every witnessed field
        wrapped, any unguarded touch on those paths raises
        GuardViolationError and fails the run.
        """
        import repro.util.sync as sync
        from repro.transport import faultinject

        monkeypatch.setenv("TDP_FAULTPLAN", "seed:42")
        previous = sync.sanitize_enabled()
        sync.set_sanitize(True)
        before = set(sync._witnessed_classes)
        sync.arm_guard_witness()
        base = InMemoryTransport(flat_network(["node1", "submit"]))
        transport = faultinject.from_env(base)
        assert isinstance(transport, FaultInjectTransport)
        server = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
        client = AttributeSpaceClient.connect(
            transport, "submit", server.endpoint,
            context="job", member="chaos42", reconnect=FAST, lease_ttl=30.0,
        )
        try:
            for i in range(30):
                assert client.put(f"w{i}", str(i)) >= 1
            snapshot = client.snapshot()
            for i in range(30):
                assert snapshot[f"w{i}"] == str(i)
            assert transport.injected_total() >= 1  # the plan actually bit
        finally:
            client.close()
            server.stop()
            for cls in set(sync._witnessed_classes) - before:
                sync.uninstall_guard_witness(cls)
            sync.set_sanitize(previous)
