"""Round-trip and schema-conformance tests for every wire frame kind.

Two layers of defense:

* a live client/server exchange with every frame captured at the codec
  seam and validated against the committed ``protocol.lock.json`` — a
  field that drifts off-schema (the ``local_sub``/``session`` class of
  bug) fails here with the offending frame named;
* direct codec round-trips asserting losslessness for representative
  frames of each op, including optionals in both states and error
  replies for every mapped exception class.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.analysis import wireschema
from repro.attrspace import protocol
from repro.attrspace.client import AttributeSpaceClient
from repro.attrspace.notify import Notification
from repro.attrspace.server import AttributeSpaceServer, ServerRole, _notify_frame
from repro.net.topology import flat_network
from repro.transport import framing
from repro.transport.inmem import InMemoryTransport


@pytest.fixture(scope="module")
def lock():
    return wireschema.to_lock(wireschema.infer_from_tree())


# -- live capture at the codec seam -------------------------------------------


class FrameLog:
    """Every frame both sides encoded, in order, with its lock kind."""

    def __init__(self):
        self.frames: list[dict] = []
        self.req_ops: dict[int, str] = {}
        self.req_sub_kinds: dict[int, list[str]] = {}

    def classified(self) -> list[tuple[str, dict]]:
        out = []
        for frame in self.frames:
            if "reply_to" in frame:
                if frame.get("ok") is True:
                    op = self.req_ops[frame["reply_to"]]
                    out.append((f"{op}.reply", frame))
                    for kind, sub in zip(
                        self.req_sub_kinds.get(frame["reply_to"], []),
                        frame.get("replies", []),
                    ):
                        out.append((
                            f"batch:{kind}.reply" if sub.get("ok") else "error",
                            sub,
                        ))
                else:
                    out.append(("error", frame))
            elif frame.get("op") == protocol.OP_NOTIFY:
                out.append(("notify", frame))
            else:
                op, req = frame["op"], frame["req"]
                self.req_ops[req] = op
                out.append((f"{op}.request", frame))
                if op == protocol.OP_BATCH:
                    self.req_sub_kinds[req] = [
                        sub["op"] for sub in frame["ops"]
                    ]
                    out.extend(
                        (f"batch:{sub['op']}.request", sub)
                        for sub in frame["ops"]
                    )
        return out


@pytest.fixture
def capture(monkeypatch):
    """Record every frame at the codec's two seams: ``encode_body`` (the
    bytes of TCP frames and of shared notify bodies) and ``copy_body``
    (an in-memory message, copied as its round trip would leave it)."""
    log = FrameLog()
    original = protocol.encode_body
    original_copy = protocol.copy_body

    def recording_encode(message):
        data = original(message)
        log.frames.append(json.loads(data))
        return data

    def recording_copy(message, *args):
        copied = original_copy(message, *args)
        log.frames.append(json.loads(original(message)))
        return copied

    monkeypatch.setattr(protocol, "encode_body", recording_encode)
    monkeypatch.setattr(protocol, "copy_body", recording_copy)
    return log


@pytest.fixture
def server():
    transport = InMemoryTransport(flat_network(["node1", "submit"]))
    srv = AttributeSpaceServer(transport, "node1", role=ServerRole.LASS)
    yield transport, srv
    srv.stop()


def run_full_scenario(transport, srv):
    """Exercise all twelve request ops plus the notify push."""
    channel = transport.connect("submit", srv.endpoint, timeout=5.0)
    client = AttributeSpaceClient(channel, context="conf", member="probe")
    seen = []
    sub_id = client.subscribe("pid*", lambda n, arg: seen.append(n), None)
    agg_id = client.subscribe_agg(
        "agg*", lambda n, arg: None, origin="lass:submit"
    )
    client.put("pid", "4711")
    client.put("pid.boot", "1", ephemeral=True)
    assert client.get("pid", timeout=5.0) == "4711"
    assert client.try_get("pid") == "4711"
    with pytest.raises(errors.NoSuchAttributeError):
        client.try_get("ghost")
    client.put_many([("a", "1"), ("b", "2", True)])
    assert client.get_many(["a", "b"]) == ["1", "2"]
    with client.batch() as b:
        b.put("c", "3")
        removed = b.remove("a")
    assert removed.value is True
    assert "pid" in client.list_attributes()
    assert client.snapshot()["b"] == "2"
    assert client.remove("b") is True
    assert client.ping()["role"] == "lass"
    assert client.wait_event(timeout=5.0)
    client.service_events()
    assert seen and seen[0].attribute == "pid"
    assert client.unsubscribe(sub_id) is True
    assert client.unsubscribe(agg_id) is True
    client.close()  # sends detach
    return seen


def test_every_captured_frame_conforms_to_lock(lock, capture, server):
    transport, srv = server
    run_full_scenario(transport, srv)
    classified = capture.classified()
    failures = []
    for kind, frame in classified:
        problems = wireschema.validate_frame(lock, frame, kind)
        if problems:
            failures.append(f"{kind}: {frame!r}: {problems}")
    assert not failures, "off-schema frames on the wire:\n" + "\n".join(failures)
    # non-vacuity: the scenario exercised the whole op surface
    kinds = {k for k, _ in classified}
    all_requests = {
        f"{value}.request"
        for name, value in vars(protocol).items()
        if name.startswith("OP_") and value != "notify"
    }
    assert all_requests <= kinds, f"missed: {all_requests - kinds}"
    assert {"notify", "error", "batch:put.request", "batch:get.request",
            "batch:remove.request", "batch:put.reply"} <= kinds


def test_fixed_asymmetries_stay_off_the_wire(capture, server):
    """Regression pins for the drift the schema pass surfaced: these
    fields used to ride the wire and must never return."""
    transport, srv = server
    run_full_scenario(transport, srv)
    for kind, frame in capture.classified():
        if kind == "subscribe.request":
            assert "local_sub" not in frame, "client ledger id leaked"
        elif kind == "attach.reply":
            assert "session" not in frame, "session echo returned"
        elif kind == "detach.reply":
            assert "destroyed" not in frame, "destroyed echo returned"
        elif kind.startswith("batch:") and kind.endswith(".request"):
            assert "context" not in frame, "per-sub-op context override"


def test_captured_frames_survive_framing_roundtrip(capture, server):
    transport, srv = server
    run_full_scenario(transport, srv)
    # snapshot: roundtrip() itself re-enters the recording codec
    for frame in list(capture.frames):
        assert framing.roundtrip(frame) == frame


# -- direct codec round-trips -------------------------------------------------

#: representative frames per lock kind, optionals present and absent
SAMPLES = [
    ("attach.request", {"op": "attach", "req": 0, "context": "c",
                        "member": "m"}),
    ("attach.request", {"op": "attach", "req": 0, "context": "c",
                        "member": "m", "session": "tok", "lease_ttl": 12.5}),
    ("attach.reply", {"reply_to": 0, "ok": True, "context": "c",
                      "resumed": False}),
    ("attach.reply", {"reply_to": 0, "ok": True, "context": "c",
                      "resumed": True, "lease_ttl": 30.0}),
    ("detach.request", {"op": "detach", "req": 1, "context": "c",
                        "member": "m"}),
    ("detach.reply", {"reply_to": 1, "ok": True}),
    ("put.request", {"op": "put", "req": 2, "context": "c",
                     "attribute": "pid", "value": "4711"}),
    ("put.request", {"op": "put", "req": 2, "context": "c",
                     "attribute": "pid", "value": "4711", "ephemeral": True}),
    ("put.reply", {"reply_to": 2, "ok": True, "version": 3}),
    ("get.request", {"op": "get", "req": 3, "context": "c",
                     "attribute": "pid", "block": True, "timeout": 5.0}),
    ("get.request", {"op": "get", "req": 3, "context": "c",
                     "attribute": "pid", "block": False}),
    ("get.request", {"op": "get", "req": 3, "context": "c",
                     "attribute": "pid", "block": True, "timeout": None}),
    ("get.reply", {"reply_to": 3, "ok": True, "value": "naïve π ≠ 3"}),
    ("remove.request", {"op": "remove", "req": 4, "context": "c",
                        "attribute": "pid"}),
    ("remove.reply", {"reply_to": 4, "ok": True, "existed": False}),
    ("list.request", {"op": "list", "req": 5, "context": "c"}),
    ("list.reply", {"reply_to": 5, "ok": True, "attributes": ["a", "b"]}),
    ("snapshot.request", {"op": "snapshot", "req": 6, "context": "c"}),
    ("snapshot.reply", {"reply_to": 6, "ok": True, "data": {"a": "1"}}),
    ("subscribe.request", {"op": "subscribe", "req": 7, "context": "c",
                           "pattern": "pid*"}),
    ("subscribe.reply", {"reply_to": 7, "ok": True, "sub": 9}),
    ("unsubscribe.request", {"op": "unsubscribe", "req": 8, "sub": 9}),
    ("unsubscribe.reply", {"reply_to": 8, "ok": True, "removed": True}),
    ("ping.request", {"op": "ping", "req": 9}),
    ("ping.reply", {"reply_to": 9, "ok": True, "name": "lass@node1",
                    "role": "lass"}),
    ("batch.request", {"op": "batch", "req": 10, "context": "c",
                       "ops": [{"op": "put", "attribute": "a",
                                "value": "1"}]}),
    ("batch.reply", {"reply_to": 10, "ok": True,
                     "replies": [{"ok": True, "version": 1}]}),
    ("batch:put.request", {"op": "put", "attribute": "a", "value": "1"}),
    ("batch:put.request", {"op": "put", "attribute": "a", "value": "1",
                           "ephemeral": False}),
    ("batch:put.reply", {"ok": True, "version": 2}),
    ("batch:get.request", {"op": "get", "attribute": "a"}),
    ("batch:get.reply", {"ok": True, "value": "1"}),
    ("batch:remove.request", {"op": "remove", "attribute": "a"}),
    ("batch:remove.reply", {"ok": True, "existed": True}),
    ("sub_agg.request", {"op": "sub_agg", "req": 12, "context": "c",
                         "pattern": "pid*", "agg": 3,
                         "origin": "lass:node1"}),
    ("sub_agg.reply", {"reply_to": 12, "ok": True, "sub": 9}),
    ("error", {"reply_to": 13, "ok": False, "error_type": "protocol",
               "error": "unknown op 'shardmap'"}),
    ("notify", {"op": "notify", "sub": 9, "kind": "put", "context": "c",
                "attribute": "pid", "value": "4711", "origin": None}),
    ("notify", {"op": "notify", "sub": 9, "kind": "put", "context": "c",
                "attribute": "pid", "value": "4711",
                "origin": "lass:node1"}),
    ("notify", {"op": "notify", "sub": 9, "kind": "remove", "context": "c",
                "attribute": "pid", "value": None, "origin": None}),
    ("error", {"reply_to": 11, "ok": False, "error_type": "context",
               "error": "no such context"}),
    ("error", {"reply_to": 11, "ok": False,
               "error_type": "no_such_attribute", "error": "pid",
               "attribute": "pid", "context": "c"}),
]


@pytest.mark.parametrize(
    "kind,frame", SAMPLES, ids=[f"{k}-{i}" for i, (k, _) in enumerate(SAMPLES)]
)
def test_sample_frame_roundtrips_and_conforms(lock, kind, frame):
    assert framing.roundtrip(frame) == frame
    assert wireschema.validate_frame(lock, frame, kind) == []


def test_error_reply_roundtrips_every_mapped_class():
    """encode -> wire -> decode reconstructs each mapped exception."""
    samples = {
        errors.NoSuchAttributeError: errors.NoSuchAttributeError("pid", "c"),
        errors.AttributeFormatError: errors.AttributeFormatError("bad name"),
        errors.ContextError: errors.ContextError("no such context"),
        errors.GetTimeoutError: errors.GetTimeoutError("timed out"),
        errors.ProtocolError: errors.ProtocolError("drift"),
        errors.ReconnectFailedError: errors.ReconnectFailedError("gone"),
        errors.SpaceClosedError: errors.SpaceClosedError("closed"),
    }
    assert set(samples) == set(protocol._TYPE_NAMES)
    for klass, exc in samples.items():
        reply = framing.roundtrip(protocol.error_reply(42, exc))
        with pytest.raises(klass) as raised:
            protocol.raise_error(reply)
        assert type(raised.value) is klass
        assert str(exc).split(" (")[0] in str(raised.value)
    # NoSuchAttributeError keeps its structured fields across the wire
    reply = framing.roundtrip(
        protocol.error_reply(1, errors.NoSuchAttributeError("pid", "ctx"))
    )
    with pytest.raises(errors.NoSuchAttributeError) as raised:
        protocol.raise_error(reply)
    assert raised.value.attribute == "pid"
    assert raised.value.context == "ctx"


def test_unserializable_frame_is_a_protocol_error():
    with pytest.raises(errors.ProtocolError, match="unserializable"):
        framing.encode_frame({"op": "put", "value": object()})


def test_malformed_body_is_a_protocol_error():
    with pytest.raises(errors.ProtocolError, match="malformed frame body"):
        framing.decode_body(b"not json")
    with pytest.raises(errors.ProtocolError, match="JSON object"):
        framing.decode_body(b"[1, 2]")


# -- binary codec conformance --------------------------------------------------
#
# The same sample set, error classes, and strictness contract must hold
# with the negotiated binary codec — the codec seam is only honest if
# both codecs are interchangeable for every frame in protocol.lock.json.


def binary_roundtrip(message):
    """Full wire path: binary frame with flag bit, fed through FrameReader."""
    wire = framing.encode_frame(message, codec=protocol.CODEC_BINARY)
    out = list(framing.FrameReader().feed(wire))
    assert len(out) == 1
    return out[0]


@pytest.mark.parametrize(
    "kind,frame", SAMPLES, ids=[f"{k}-{i}" for i, (k, _) in enumerate(SAMPLES)]
)
def test_binary_sample_frame_roundtrips_and_conforms(lock, kind, frame):
    decoded = binary_roundtrip(frame)
    assert decoded == frame
    assert wireschema.validate_frame(lock, decoded, kind) == []


#: ``bincodec.encode`` of one frame per op, generated at the commit before
#: ``shardmap``/``epoch``/``shards`` left the tables: an op removal that
#: moved any surviving tag or field id would change these bytes.
GOLDEN_BYTES = [
    ({"op": "attach", "req": 0, "context": "c", "member": "m",
      "session": "tok", "lease_ttl": 12.5},
     "000005010300050801631508016d180803746f6b19074029000000000000"),
    ({"op": "batch", "req": 10, "context": "c",
      "ops": [{"op": "put", "attribute": "a", "value": "1"}]},
     "01000301030a05080163120a000000010b00000003000803707574060801610808"
     "0131"),
    ({"op": "detach", "req": 1, "context": "c", "member": "m"},
     "020003010301050801631508016d"),
    ({"op": "get", "req": 3, "context": "c", "attribute": "pid",
      "block": True, "timeout": 5.0},
     "030005010303050801630608037069640d020e074014000000000000"),
    ({"op": "list", "req": 5, "context": "c"}, "04000201030505080163"),
    ({"op": "notify", "sub": 9, "kind": "put", "context": "c",
      "attribute": "pid", "value": "4711", "origin": "lass:node1"},
     "050006100309110803707574050801630608037069640808043437313123080a6c"
     "6173733a6e6f646531"),
    ({"op": "ping", "req": 9}, "060001010309"),
    ({"op": "put", "req": 2, "context": "c", "attribute": "pid",
      "value": "4711", "ephemeral": True},
     "07000501030205080163060803706964080804343731310a02"),
    ({"op": "remove", "req": 4, "context": "c", "attribute": "pid"},
     "08000301030405080163060803706964"),
    ({"op": "snapshot", "req": 6, "context": "c"}, "09000201030605080163"),
    ({"op": "subscribe", "req": 7, "context": "c", "pattern": "pid*"},
     "0a0003010307050801630f08047069642a"),
    ({"op": "unsubscribe", "req": 8, "sub": 9}, "0b0002010308100309"),
    ({"op": "sub_agg", "req": 12, "context": "c", "pattern": "pid*",
      "agg": 3, "origin": "lass:node1"},
     "0c000501030c050801630f08047069642a24030323080a6c6173733a6e6f646531"),
]


def test_golden_bytes_no_tag_or_field_id_moved():
    ops = {value for name, value in vars(protocol).items()
           if name.startswith("OP_")}
    assert {frame["op"] for frame, _ in GOLDEN_BYTES} == ops
    for frame, golden in GOLDEN_BYTES:
        body = protocol.encode_body(frame, codec=protocol.CODEC_BINARY)
        assert body.hex() == golden, frame["op"]
        assert protocol.decode_body(bytes.fromhex(golden), True) == frame


def test_retired_tags_decode_as_protocol_errors():
    """Op tag 13 (``shardmap``) and field ids 37/38 (``epoch``,
    ``shards``) are past the end of their tables again."""
    retired_op = bytes([13, 0, 1, 1, 3, 0])             # <op 13> req=0
    retired_fields = [
        bytes([6, 0, 1, fid, 3, 0]) for fid in (37, 38)  # ping <fid>=0
    ]
    nested = bytes([6, 0, 1, 20, 0x0B, 0, 0, 0, 1, 37, 3, 0])  # data={<37>: 0}
    for body in (retired_op, *retired_fields, nested):
        with pytest.raises(errors.ProtocolError, match="unknown"):
            protocol.decode_body(body, True)


def test_retired_op_is_refused_and_the_connection_keeps_serving(server):
    transport, srv = server
    channel = transport.connect("submit", srv.endpoint, timeout=5.0)
    client = AttributeSpaceClient(channel, context="conf", member="probe")
    with pytest.raises(errors.ProtocolError, match="unknown op 'shardmap'"):
        client._rpc({"op": "shardmap"})
    assert client.ping()["role"] == "lass"
    client.close()


def test_binary_frames_carry_the_flag_bit():
    body_json = framing.encode_frame({"op": "ping", "req": 0})
    body_bin = framing.encode_frame(
        {"op": "ping", "req": 0}, codec=protocol.CODEC_BINARY)
    assert not body_json[0] & 0x80  # JSON frames leave bit 31 clear
    assert body_bin[0] & 0x80       # binary frames set it
    # A reader decodes an interleaved stream per-frame, not per-channel.
    out = list(framing.FrameReader().feed(body_bin + body_json + body_bin))
    assert out == [{"op": "ping", "req": 0}] * 3


def test_binary_error_reply_roundtrips_every_mapped_class():
    for name, klass in protocol._ERROR_TYPES.items():
        exc = (errors.NoSuchAttributeError("pid", "c")
               if klass is errors.NoSuchAttributeError else klass("boom"))
        reply = binary_roundtrip(protocol.error_reply(42, exc))
        with pytest.raises(klass) as raised:
            protocol.raise_error(reply)
        assert type(raised.value) is klass, name


def test_binary_encode_rejects_non_string_keys():
    with pytest.raises(errors.ProtocolError):
        protocol.encode_body(
            {"op": "put", "value": {1: "x"}}, codec=protocol.CODEC_BINARY)


def test_binary_encode_rejects_unserializable_values():
    with pytest.raises(errors.ProtocolError):
        protocol.encode_body(
            {"op": "put", "value": object()}, codec=protocol.CODEC_BINARY)


def test_binary_malformed_body_is_a_protocol_error():
    good = protocol.encode_body(
        {"op": "ping", "req": 0}, codec=protocol.CODEC_BINARY)
    for mangled in (b"", b"\xff", good[:-1], good[:3], b"\x0b" + good):
        with pytest.raises(errors.ProtocolError, match="malformed frame body"):
            protocol.decode_body(mangled, True)


def test_binary_value_fidelity_beyond_the_lock():
    """Types the op schemas allow in ``value``/``data`` positions survive:
    unicode, big ints, floats, nesting, and the full scalar range."""
    gnarly = {
        "op": "put", "req": 2**40, "context": "c", "attribute": "a",
        "value": {
            "s": "naïve π ≠ 3 ☃",
            "neg": -(2**63) + 1,
            "big": 2**200,
            "negbig": -(2**200),
            "f": 1.5e-300,
            "nested": [[None, True, False], {"deep": {"er": [0.0]}}],
            "empty_list": [], "empty_map": {},
        },
    }
    assert binary_roundtrip(gnarly) == gnarly


def test_binary_unknown_field_names_roundtrip():
    # Fields outside the pinned vocabulary ride the escape path, so a
    # future op extension does not require a codec bump.
    frame = {"op": "ping", "req": 1, "brand_new_field": ["x", 1]}
    assert binary_roundtrip(frame) == frame


# -- shared notify bodies -----------------------------------------------------

#: short text, and text past tdpb1's one-byte length (255 UTF-8 bytes)
_texts = st.text(max_size=12) | st.text(min_size=256, max_size=300)
#: sub ids in tdpb1's int8, int32 and int64 ranges
_subs = (
    st.integers(-128, 127)
    | st.integers(-(2**31), 2**31 - 1)
    | st.integers(-(2**63), 2**63 - 1)
)
_notifications = st.builds(
    Notification,
    context=_texts,
    attribute=_texts,
    value=st.none() | _texts,
    kind=st.sampled_from(["put", "remove"]),
    origin=st.none() | _texts,
)


@given(notification=_notifications, first=_subs, sub=_subs)
@settings(max_examples=300, deadline=None)
def test_shared_body_frame_is_the_per_subscriber_frame(notification, first, sub):
    """The frame a subscriber gets from a body shared with the rest of
    its fan-out is byte for byte the frame encoded for it alone."""
    for codec in protocol.SUPPORTED_CODECS:
        shared = framing.SharedBody(_notify_frame(first, notification), "sub", codec)
        frame = shared.frame(protocol.encode_field("sub", sub, codec))
        alone = {"op": "notify", "sub": sub, **notification.to_wire()}
        assert frame == framing.encode_frame(alone, codec)
        assert framing.decode_frame(frame) == alone
