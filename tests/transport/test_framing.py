"""Unit and property tests for the wire frame codec."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.transport import framing


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(min_value=-(2**31), max_value=2**31)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=40),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=10), children, max_size=4),
    max_leaves=12,
)
messages = st.dictionaries(st.text(min_size=1, max_size=16), json_values, max_size=6)


class TestEncodeDecode:
    def test_roundtrip_simple(self):
        msg = {"op": "put", "attr": "pid", "value": "4711"}
        assert framing.roundtrip(msg) == msg

    def test_rejects_non_dict(self):
        with pytest.raises(ProtocolError):
            framing.encode_frame(["not", "a", "dict"])  # type: ignore[arg-type]

    def test_rejects_unserializable(self):
        with pytest.raises(ProtocolError):
            framing.encode_frame({"x": object()})

    def test_rejects_oversized(self):
        with pytest.raises(ProtocolError):
            framing.encode_frame({"x": "a" * (framing.MAX_FRAME_BYTES + 1)})

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError):
            framing.decode_body(b"[1,2]")

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            framing.decode_body(b"\xff\xfe not json")

    @given(messages)
    def test_roundtrip_property(self, msg):
        assert framing.roundtrip(msg) == msg


class TestCodecDelegation:
    """Framing owns only the length prefix; the body bytes come from the
    sanctioned codec in ``repro.attrspace.protocol`` (the seam a binary
    codec would swap in behind)."""

    def test_encode_routes_through_protocol_codec(self, monkeypatch):
        from repro.attrspace import protocol

        calls = []
        original = protocol.encode_body

        def spying_encode(message):
            calls.append(message)
            return original(message)

        monkeypatch.setattr(protocol, "encode_body", spying_encode)
        frame = framing.encode_frame({"op": "ping", "req": 1})
        assert calls == [{"op": "ping", "req": 1}]
        assert frame[4:] == original({"op": "ping", "req": 1})

    def test_decode_routes_through_protocol_codec(self, monkeypatch):
        from repro.attrspace import protocol

        seen = []
        original = protocol.decode_body

        def spying_decode(body):
            seen.append(bytes(body))
            return original(body)

        monkeypatch.setattr(protocol, "decode_body", spying_decode)
        body = framing.encode_frame({"n": 7})[4:]
        assert framing.decode_body(body) == {"n": 7}
        assert seen == [body]

    def test_decode_frame_reads_the_codec_flag(self):
        from repro.attrspace import protocol

        message = {"op": "put", "req": 3, "attribute": "a", "value": "v"}
        binary = framing.encode_frame(message, protocol.CODEC_BINARY)
        assert framing.decode_frame(binary) == message
        assert framing.decode_frame(framing.encode_frame(message)) == message

    def test_codec_module_is_cached(self):
        assert framing._body_codec() is framing._body_codec()


class TestFrameReader:
    def test_single_frame(self):
        reader = framing.FrameReader()
        out = reader.feed(framing.encode_frame({"a": 1}))
        assert out == [{"a": 1}]
        assert reader.pending_bytes == 0

    def test_byte_at_a_time(self):
        reader = framing.FrameReader()
        frame = framing.encode_frame({"k": "v"})
        collected = []
        for i in range(len(frame)):
            collected.extend(reader.feed(frame[i : i + 1]))
        assert collected == [{"k": "v"}]

    def test_multiple_frames_in_one_chunk(self):
        reader = framing.FrameReader()
        data = framing.encode_frame({"n": 1}) + framing.encode_frame({"n": 2})
        assert reader.feed(data) == [{"n": 1}, {"n": 2}]

    def test_split_across_chunks(self):
        reader = framing.FrameReader()
        data = framing.encode_frame({"n": 1}) + framing.encode_frame({"n": 2})
        mid = len(data) // 2 + 1
        out = reader.feed(data[:mid])
        out += reader.feed(data[mid:])
        assert out == [{"n": 1}, {"n": 2}]

    def test_oversized_announcement_rejected(self):
        reader = framing.FrameReader()
        import struct

        with pytest.raises(ProtocolError):
            reader.feed(struct.pack(">I", framing.MAX_FRAME_BYTES + 1))

    @given(st.lists(messages, min_size=1, max_size=5), st.integers(min_value=1, max_value=7))
    def test_arbitrary_chunking_property(self, msgs, chunk):
        stream = b"".join(framing.encode_frame(m) for m in msgs)
        reader = framing.FrameReader()
        out = []
        for i in range(0, len(stream), chunk):
            out.extend(reader.feed(stream[i : i + chunk]))
        assert out == msgs
