"""End-to-end trace propagation: one tdp_put, followed everywhere.

The acceptance scenarios for the obs subsystem: the trace context
allocated at a ``tdp_put`` entry point must be visible in the server's
put handling, in every notification delivery it triggers, and in the
subscriber's callback span — on a clean channel, and unchanged across a
fault-severed reconnect (replayed frames carry their original context).
"""

import json

from repro import obs
from repro.attrspace.client import ReconnectPolicy
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.net.topology import flat_network
from repro.tdp.api import (
    tdp_exit,
    tdp_get,
    tdp_init,
    tdp_put,
    tdp_service_events,
    tdp_subscribe,
)
from repro.tdp.handle import Role
from repro.transport.faultinject import FaultInjectTransport, FaultPlan
from repro.transport.inmem import InMemoryTransport

from tests.obs.conftest import wait_until

FAST = ReconnectPolicy(base_delay=0.01, max_delay=0.1, deadline=5.0, seed=7)

CHAIN = {"tdp_put", "server.put", "notify.deliver", "notify.callback"}


def _put_trace_id(attribute):
    """Trace id of the tdp_put root span for ``attribute``."""
    root = next(
        s for s in obs.spans(name="tdp_put")
        if s.tags.get("attribute") == attribute
    )
    return root.trace_id


def _assert_causal_chain(trace_id):
    """Every chain span present, and parent links walk back to the root."""
    spans = obs.spans(trace_id=trace_id)
    by_id = {s.span_id: s for s in spans}
    assert CHAIN <= {s.name for s in spans}
    callback = next(s for s in spans if s.name == "notify.callback")
    walked = []
    node = callback
    while node is not None:
        walked.append(node.name)
        node = by_id.get(node.parent_id)
    assert walked[-1] == "tdp_put", walked
    assert "server.put" in walked and "notify.deliver" in walked


class TestPutNotifyChain:
    def test_one_put_links_client_server_and_notification(self, obs_on):
        transport = InMemoryTransport(flat_network(["node1"]))
        server = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
        sub = tdp_init(transport, server.endpoint, member="RT", role=Role.RT,
                       context="job", src_host="node1")
        put = tdp_init(transport, server.endpoint, member="AS", role=Role.AS,
                       context="job", src_host="node1")
        try:
            seen = []
            tdp_subscribe(sub, "watch*", lambda n, a: seen.append(n.value))
            tdp_put(put, "watch.1", "v")
            assert wait_until(lambda: sub.has_pending_events())
            tdp_service_events(sub)
            assert seen == ["v"]
            _assert_causal_chain(_put_trace_id("watch.1"))
        finally:
            tdp_exit(sub)
            tdp_exit(put)
            server.stop()

    def test_blocked_get_completion_joins_the_getter_trace(self, obs_on):
        import threading

        transport = InMemoryTransport(flat_network(["node1"]))
        server = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
        getter = tdp_init(transport, server.endpoint, member="RT", role=Role.RT,
                          context="job", src_host="node1")
        putter = tdp_init(transport, server.endpoint, member="AS", role=Role.AS,
                          context="job", src_host="node1")
        try:
            result = {}
            t = threading.Thread(
                target=lambda: result.__setitem__(
                    "v", tdp_get(getter, "late", timeout=10.0)
                )
            )
            t.start()
            assert wait_until(
                lambda: server.store.pending_waiter_count(context="job") > 0
            )
            tdp_put(putter, "late", "x")
            t.join(timeout=10.0)
            assert result["v"] == "x"
            # The wake-up runs on the putter's thread but is attributed
            # to the *getter's* request trace.
            get_root = next(
                s for s in obs.spans(name="tdp_get")
                if s.tags.get("attribute") == "late"
            )
            completes = obs.spans(trace_id=get_root.trace_id, name="get.complete")
            assert len(completes) == 1
            assert completes[0].actor == server.name
        finally:
            tdp_exit(getter)
            tdp_exit(putter)
            server.stop()


class TestBinaryTcpChannel:
    def test_chain_holds_over_negotiated_binary_tcp(self, obs_on):
        """The trace context rides the binary codec unchanged: real TCP,
        tdpb1 negotiated, same causal chain as the in-memory channel."""
        from repro.attrspace import protocol
        from repro.transport.tcp import TcpTransport

        transport = TcpTransport()
        server = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
        sub = tdp_init(transport, server.endpoint, member="RT", role=Role.RT,
                       context="job", src_host="submit")
        put = tdp_init(transport, server.endpoint, member="AS", role=Role.AS,
                       context="job", src_host="submit")
        try:
            for handle in (put, sub):
                session = handle.lass._session
                with session._lock:  # _channel's guard
                    assert session._channel.codec == protocol.CODEC_BINARY
            seen = []
            tdp_subscribe(sub, "watch*", lambda n, a: seen.append(n.value))
            tdp_put(put, "watch.bin", "v")
            assert wait_until(lambda: sub.has_pending_events())
            tdp_service_events(sub)
            assert seen == ["v"]
            _assert_causal_chain(_put_trace_id("watch.bin"))
        finally:
            tdp_exit(sub)
            tdp_exit(put)
            server.stop()


class TestSeveredReconnect:
    def test_trace_survives_fault_severed_reconnect(self, obs_on):
        base = InMemoryTransport(flat_network(["node1", "submit"]))
        # Channel 0 is the putter's leased channel (the subscriber dials
        # through the unwrapped inner transport); send 0 is its attach,
        # send 1 the put — severed mid-flight, then replayed on the
        # re-dialed channel with its original trace context.
        plan = FaultPlan(seed=42, script={(0, 1): "sever"})
        transport = FaultInjectTransport(base, plan)
        server = AttributeSpaceServer(base, "node1", role=ServerRole.LASS)
        sub = tdp_init(base, server.endpoint, member="RT", role=Role.RT,
                       context="job", src_host="submit")
        put = tdp_init(transport, server.endpoint, member="AS", role=Role.AS,
                       context="job", src_host="submit",
                       reconnect=FAST, lease_ttl=30.0)
        try:
            seen = []
            tdp_subscribe(sub, "watch*", lambda n, a: seen.append(n.value))
            tdp_put(put, "watch.sever", "v")
            assert transport.fault_counts["sever"].value == 1
            assert any(
                r["event"] == "session.reestablished"
                for r in put.lass.session_log
            )
            assert wait_until(lambda: sub.has_pending_events())
            tdp_service_events(sub)
            assert seen == ["v"]
            # Same single trace spans the severed attempt and the replay.
            _assert_causal_chain(_put_trace_id("watch.sever"))
            reconnects = obs.registry().counter("attrspace.client.reconnects")
            assert reconnects.value >= 1
        finally:
            tdp_exit(sub)
            tdp_exit(put)
            server.stop()


class TestParadorChromeExport:
    def test_pilot_exports_causally_linked_chrome_trace(self, obs_on, tmp_path):
        from repro.parador.run import ParadorScenario

        with ParadorScenario(execute_hosts=["node1"]) as scenario:
            # A scenario keeps a protocol trace only when its caller
            # passes one; the spans below do not depend on it.
            assert scenario.trace is None
            run = scenario.submit_monitored("foo", "5 0.1")
            assert run.job.wait_terminal(timeout=60.0) is not None
            run.session.wait_state("exited", timeout=30.0)

        # Some tdp_put_many of the pilot (the starter's batched launch
        # record, paradynd's sample batches) crossed to a server: pick
        # one whose trace includes the server-side handling on another
        # actor, with the per-sub-op child spans under the batch parent.
        linked = [
            tid
            for tid in {s.trace_id for s in obs.spans(name="tdp_put_many")}
            if {s.name for s in obs.spans(trace_id=tid)}
            >= {"tdp_put_many", "server.batch", "batch.put"}
        ]
        assert linked, "no tdp_put_many trace reached a server"
        tid = linked[0]
        assert len({s.actor for s in obs.spans(trace_id=tid)}) >= 2

        path = tmp_path / "pilot_trace.json"
        n = obs.export.write_chrome_trace(str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        events = doc["traceEvents"]
        assert sum(1 for e in events if e["ph"] == "X") == n > 0
        flows = [e for e in events if e.get("cat") == "tdp.flow" and e["id"] == tid]
        assert any(e["ph"] == "s" for e in flows)
        assert any(e["ph"] == "f" and e.get("bp") == "e" for e in flows)
