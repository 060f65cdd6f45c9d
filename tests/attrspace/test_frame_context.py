"""Decode/dispatch error context and the dispatch catch-all.

Regression pins for the diagnosability work: a ProtocolError born
anywhere on the decode or dispatch path names the op and request id, the
flight recorder captures the offending frame when observability is on,
and a crashing handler answers with an error reply instead of killing
the serve thread.
"""

import pytest

from repro import errors, obs
from repro.attrspace import protocol
from repro.attrspace.client import AttributeSpaceClient
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.net.topology import flat_network
from repro.transport.inmem import InMemoryTransport


@pytest.fixture
def server():
    transport = InMemoryTransport(flat_network(["node1", "submit"]))
    srv = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
    yield transport, srv
    srv.stop()


def make_client(transport, srv, **kwargs):
    channel = transport.connect("submit", srv.endpoint, timeout=5.0)
    return AttributeSpaceClient(channel, context="ctx", member="probe",
                                **kwargs)


class TestFrameError:
    def test_context_derived_from_frame(self):
        exc = protocol.frame_error(
            "bad field", frame={"op": "put", "req": 7, "value": 1}
        )
        assert isinstance(exc, errors.ProtocolError)
        assert str(exc) == "bad field (op='put', req=7)"

    def test_reply_frames_use_reply_to(self):
        exc = protocol.frame_error("drift", frame={"reply_to": 9, "ok": True})
        assert str(exc) == "drift (req=9)"

    def test_explicit_op_wins_over_frame(self):
        exc = protocol.frame_error(
            "mismatch", frame={"reply_to": 3}, op=protocol.OP_SUBSCRIBE
        )
        assert str(exc) == "mismatch (op='subscribe', req=3)"

    def test_non_string_op_ignored(self):
        exc = protocol.frame_error("weird", frame={"op": 42, "req": 1})
        assert str(exc) == "weird (req=1)"

    def test_no_frame_no_context(self):
        assert str(protocol.frame_error("plain")) == "plain"

    def test_recorder_captures_offending_frame(self):
        was_enabled = obs.enabled()
        obs.set_enabled(True)
        obs.reset()
        try:
            protocol.frame_error("bad", frame={"op": "put", "req": 3})
            events = [e for e in obs.recorder().tail(50)
                      if e.action == "protocol.frame_error"]
            assert len(events) == 1
            assert "'op': 'put'" in events[0].details["frame"]
            assert "op='put'" in events[0].details["error"]
        finally:
            obs.set_enabled(was_enabled)
            obs.reset()

    def test_huge_frames_are_trimmed_in_recorder(self):
        was_enabled = obs.enabled()
        obs.set_enabled(True)
        obs.reset()
        try:
            protocol.frame_error(
                "big", frame={"op": "put", "req": 1, "value": "x" * 10_000}
            )
            event = [e for e in obs.recorder().tail(50)
                     if e.action == "protocol.frame_error"][0]
            assert len(event.details["frame"]) <= 512
        finally:
            obs.set_enabled(was_enabled)
            obs.reset()

    def test_raise_error_includes_op_context(self):
        reply = {"reply_to": 5, "ok": False, "error_type": "protocol",
                 "error": "drift"}
        with pytest.raises(errors.ProtocolError, match=r"op='get', req=5"):
            protocol.raise_error(reply, op=protocol.OP_GET)

    def test_decode_error_names_the_op(self):
        """A malformed reply surfaces with the request's op attached."""
        with pytest.raises(errors.ProtocolError) as raised:
            protocol.raise_error(
                {"reply_to": 2, "ok": False}, op=protocol.OP_PING
            )
        assert "op='ping'" in str(raised.value)
        assert "req=2" in str(raised.value)


class TestAttachReplyAdoption:
    def test_context_mismatch_is_a_protocol_error(self, server):
        transport, srv = server
        with make_client(transport, srv) as client:
            with pytest.raises(errors.ProtocolError) as raised:
                client._session._adopt_attach_reply(
                    {"reply_to": 1, "ok": True, "context": "other"}
                )
            assert "op='attach'" in str(raised.value)
            assert "'other'" in str(raised.value)

    def test_granted_lease_ttl_is_adopted(self, server):
        transport, srv = server
        with make_client(transport, srv) as client:
            client._session._lease_ttl = 30.0
            client._session._adopt_attach_reply(
                {"reply_to": 1, "ok": True, "context": "ctx",
                 "lease_ttl": 5.0}
            )
            assert client._session._lease_ttl == 5.0

    def test_grant_ignored_without_lease_request(self, server):
        transport, srv = server
        with make_client(transport, srv) as client:
            assert client._session._lease_ttl is None
            client._session._adopt_attach_reply(
                {"reply_to": 1, "ok": True, "context": "ctx",
                 "lease_ttl": 5.0}
            )
            assert client._session._lease_ttl is None


class TestDispatchCatchAll:
    def test_handler_crash_answers_with_error_reply(self, server):
        transport, srv = server
        with make_client(transport, srv) as client:
            def broken(conn, req, request):
                raise RuntimeError("boom")

            srv._op_ping = broken
            with pytest.raises(errors.ProtocolError) as raised:
                client.ping()
            assert "internal error: boom" in str(raised.value)
            assert "op='ping'" in str(raised.value)

    def test_serve_thread_survives_handler_crash(self, server):
        transport, srv = server
        with make_client(transport, srv) as client:
            def broken(conn, req, request):
                raise ValueError("handler bug")

            srv._op_list = broken
            with pytest.raises(errors.ProtocolError):
                client.list_attributes()
            # the connection and serve loop are still healthy
            client.put("pid", "4711")
            assert client.get("pid", timeout=5.0) == "4711"

    def test_tdp_errors_keep_their_class(self, server):
        """The catch-all must not flatten mapped errors to ProtocolError."""
        transport, srv = server
        with make_client(transport, srv) as client:
            with pytest.raises(errors.NoSuchAttributeError):
                client.try_get("ghost")


class TestSubOpContextInheritance:
    def test_sub_op_context_override_is_ignored(self):
        """A sub-op carrying a stray "context" key applies to the batch
        frame's context — the override was never encodable client-side
        and must not resurrect silently."""
        from repro.attrspace.store import AttributeStore

        store = AttributeStore()
        store.attach("main", "m")
        store.attach("other", "m")
        results = store.apply_batch(
            [{"op": "put", "attribute": "pid", "value": "1",
              "context": "other"}],
            default_context="main",
            writer="m",
        )
        assert results == [{"version": 1}]
        assert store.try_get("pid", context="main") == "1"
        with pytest.raises(errors.NoSuchAttributeError):
            store.try_get("pid", context="other")
