"""Wire framing: length-prefixed frame bodies (JSON or negotiated binary).

Both transports speak the same frame format so a message captured on one
can be replayed on the other:

* 4-byte big-endian unsigned header: bit 31 is the body-codec flag
  (0 = UTF-8 JSON, 1 = the negotiated ``tdpb1`` binary codec), the low
  31 bits are the body length.  The flag rides every frame, so decoding
  never depends on per-connection negotiation state.
* The body must decode to an object (mapping), mirroring the
  :data:`~repro.transport.base.Message` type.

The in-memory transport sends no frame for a message: it delivers
:func:`copy_frame`'s copy, which is what :func:`decode_frame` of
:func:`encode_frame` returns, refused where that would be.  So anything
that works on the simulated network is actually serializable — a class
of bug that otherwise only shows up when switching to real sockets.

Body serialization is delegated to the sanctioned codec in
``repro.attrspace.protocol`` (imported lazily — the attrspace package
sits above the transports in the layering); this module owns only the
length-prefix framing, size limits and the :class:`SharedBody` splice
that lets one encoded body serve a whole notification fan-out.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import ProtocolError

_codec = None


def _body_codec():
    global _codec
    if _codec is None:
        from repro.attrspace import protocol

        _codec = protocol
    return _codec


_LEN = struct.Struct(">I")

#: Upper bound on one frame; protects servers from a runaway peer.
#: Must stay below 2**31 — bit 31 of the length prefix is the codec flag.
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Header bit marking a binary (``tdpb1``) body; low bits are the length.
_BINARY_FLAG = 0x80000000
_LENGTH_MASK = 0x7FFFFFFF


def supported_codecs() -> tuple[str, ...]:
    """Codec names to advertise in a connect hello (preference order)."""
    return _body_codec().SUPPORTED_CODECS


def negotiate_codec(offered: Any) -> str:
    """Pick the body codec for a peer's advertisement (JSON fallback)."""
    return _body_codec().negotiate_codec(offered)


def json_codec() -> str:
    """Name of the mandatory fallback codec."""
    return _body_codec().CODEC_JSON


def encode_frame(message: dict[str, Any], codec: str | None = None) -> bytes:
    """Serialize one message to a length-prefixed frame.

    ``codec=None`` means the default JSON body.  The chosen codec is
    recorded in the frame header, so mixed-codec streams decode cleanly.
    """
    body, flag = _encode_body(message, codec)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame too large: {len(body)} bytes")
    return _LEN.pack(len(body) | flag) + body


def _encode_body(message: dict[str, Any], codec: str | None) -> tuple[bytes, int]:
    """A message's body and its header's codec flag."""
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a dict, got {type(message).__name__}")
    P = _body_codec()
    if codec is None or codec == P.CODEC_JSON:
        return P.encode_body(message), 0
    return P.encode_body(message, codec), _BINARY_FLAG


class SharedBody:
    """One encoded body for many frames that differ only in one field.

    Built from one whole message whose second key (right after ``op``)
    is ``key``; :meth:`frame` splices another value's
    ``protocol.encode_field`` bytes into that key's place.  The result is
    byte for byte ``encode_frame`` of the message with that value — a
    fan-out's frames share one encode and differ only in the splice.
    """

    __slots__ = ("_head", "_tail", "_size", "_flag")

    def __init__(self, message: dict[str, Any], key: str, codec: str | None = None):
        body, self._flag = _encode_body(message, codec)
        if len(body) > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame too large: {len(body)} bytes")
        P = _body_codec()
        codec = codec or P.CODEC_JSON
        cut = P.op_header_size(body, message.get("op"), codec)
        field = P.encode_field(key, message[key], codec)
        if body[cut:cut + len(field)] != field:
            raise ProtocolError(f"{key!r} is not the field after the op")
        self._head = body[:cut]
        self._tail = body[cut + len(field):]
        self._size = len(body) - len(field)

    def frame(self, field: bytes) -> bytes:
        """The length-prefixed frame with ``field`` spliced in."""
        return b"".join((
            _LEN.pack((self._size + len(field)) | self._flag),
            self._head, field, self._tail,
        ))


def decode_body(body: bytes, binary: bool = False) -> dict[str, Any]:
    """Deserialize a frame body back into a message dict."""
    if binary:
        return _body_codec().decode_body(body, True)
    return _body_codec().decode_body(body)


def decode_frame(frame: bytes) -> dict[str, Any]:
    """Deserialize one whole frame, length prefix included."""
    (header,) = _LEN.unpack_from(frame)
    return decode_body(frame[_LEN.size :], bool(header & _BINARY_FLAG))


def roundtrip(message: dict[str, Any]) -> dict[str, Any]:
    """Encode+decode a message through the bytes: what
    :func:`copy_frame` makes without them."""
    return decode_frame(encode_frame(message))


def copy_frame(
    message: dict[str, Any], sized: bool = False
) -> tuple[dict[str, Any], int | None]:
    """What ``decode_frame(encode_frame(message))`` returns, with the same
    refusals, and that frame's length — ``None`` when a flat message
    was copied without encoding it and ``sized`` was not asked for (see
    ``protocol.copy_body``)."""
    copy, size = _body_codec().copy_body(message, MAX_FRAME_BYTES, sized)
    return copy, None if size is None else _LEN.size + size


class FrameReader:
    """Incremental frame parser for a byte stream (used by the TCP backend).

    Feed it arbitrary chunks; it yields complete messages as they become
    available.  Keeps at most one partial frame of state.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Append ``data`` and return all now-complete messages."""
        self._buf.extend(data)
        out: list[dict[str, Any]] = []
        while True:
            if len(self._buf) < _LEN.size:
                break
            (header,) = _LEN.unpack_from(self._buf, 0)
            binary = bool(header & _BINARY_FLAG)
            length = header & _LENGTH_MASK
            if length > MAX_FRAME_BYTES:
                raise ProtocolError(f"peer announced oversized frame: {length} bytes")
            if len(self._buf) < _LEN.size + length:
                break
            body = bytes(self._buf[_LEN.size : _LEN.size + length])
            del self._buf[: _LEN.size + length]
            out.append(decode_body(body, binary))
        return out

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buf)
