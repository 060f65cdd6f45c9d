"""``tdpb1`` — the negotiated binary frame-body codec.

Binary companion to the JSON body codec in ``attrspace.protocol``.
A body is::

    tag      u8     op tag (index into _OPS) or _TAG_RAW (0xFF)
    nfields  u16    number of encoded fields (excluding the implied op)
    fields   n ×    key + value

An op tag makes the ``"op"`` field implicit: requests and notify frames
never spend bytes on the op name, and decode reinserts it.  Frames with
no ``"op"`` (replies, transport hellos) use ``_TAG_RAW`` and carry every
field explicitly.

Keys are either a one-byte id into the append-only ``_FIELD_NAMES``
table (the vocabulary pinned by ``protocol.lock.json`` plus plumbing and
handshake names) or the ``_KEY_ESCAPE`` byte followed by a tagged string
— so arbitrary JSON-able dicts (attribute values, batch payloads) still
round-trip.  Values are type-tagged; the supported types are exactly the
JSON-able ones, with one deliberate restriction: dict keys must be
``str`` (JSON silently stringifies int keys; the binary codec refuses,
raising :class:`~repro.errors.ProtocolError` like any other
unserializable message, so the two codecs never disagree about what a
frame means).

The table is APPEND-ONLY: ids are wire format.  Renaming or reordering
entries breaks ``tdpb1`` compatibility; bump the codec name instead.  A
retired *tail* entry is simply dropped: no surviving id moves.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.errors import ProtocolError

CODEC_NAME = "tdpb1"

#: Op order is wire format: the original 12 ops were sorted once and are
#: now frozen; later ops APPEND (appending keeps old tags valid, which
#: is the same append-only discipline as the field table below).
_OPS = (
    "attach",
    "batch",
    "detach",
    "get",
    "list",
    "notify",
    "ping",
    "put",
    "remove",
    "snapshot",
    "subscribe",
    "unsubscribe",
    # federation (PR 9) — appended, see note above
    "sub_agg",
)
_OP_TAGS = {op: i for i, op in enumerate(_OPS)}
_TAG_RAW = 0xFF

#: Append-only field-name table (see module docstring).
_FIELD_NAMES = (
    # plumbing
    "op",
    "req",
    "reply_to",
    "ok",
    "obs",
    # op payloads (request + reply, lock vocabulary)
    "context",
    "attribute",
    "attributes",
    "value",
    "version",
    "ephemeral",
    "existed",
    "removed",
    "block",
    "timeout",
    "pattern",
    "sub",
    "kind",
    "ops",
    "replies",
    "data",
    "member",
    "name",
    "role",
    "session",
    "lease_ttl",
    "resumed",
    # error replies
    "error",
    "error_type",
    # obs trace envelope
    "t",
    "s",
    # transport handshake
    "hello",
    "hello_ack",
    "codecs",
    "codec",
    # federation (LASS<->CASS hierarchy)
    "origin",
    "agg",
)
_FIELD_IDS = {name: i for i, name in enumerate(_FIELD_NAMES)}
_KEY_ESCAPE = 0xFF

# value type tags
_T_NULL = b"\x00"
_T_FALSE = b"\x01"
_T_TRUE = b"\x02"
_T_INT8 = b"\x03"
_T_INT32 = b"\x04"
_T_INT64 = b"\x05"
_T_BIGINT = b"\x06"
_T_FLOAT = b"\x07"
_T_STR8 = b"\x08"
_T_STR32 = b"\x09"
_T_LIST = b"\x0a"
_T_DICT = b"\x0b"

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I8 = struct.Struct(">b")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")

_ONE_BYTE = tuple(bytes((i,)) for i in range(256))

#: Decode refuses nesting deeper than this — frames are shallow, and the
#: bound keeps a hostile body from exhausting the interpreter stack.
_MAX_DEPTH = 64


def encode(message: dict[str, Any]) -> bytes:
    """Encode a frame body; raises ProtocolError on unserializable input.

    The field loop inlines the dominant cases (table keys; str / small
    int / bool / None values) — this runs once per frame on both the
    client and the event loop, so call overhead is the cost driver.
    """
    op = message.get("op")
    tag = _OP_TAGS.get(op) if isinstance(op, str) else None
    nfields = len(message) - (1 if tag is not None else 0)
    if nfields > 0xFFFF:
        raise ProtocolError(f"unserializable message: {nfields} fields exceeds tdpb1 limit")
    out: list[bytes] = [
        _ONE_BYTE[tag if tag is not None else _TAG_RAW],
        _U16.pack(nfields),
    ]
    append = out.append
    field_ids, one_byte = _FIELD_IDS, _ONE_BYTE
    for key, value in message.items():
        if key == "op" and tag is not None:
            continue
        fid = field_ids.get(key)
        if fid is not None:
            append(one_byte[fid])
        else:
            if not isinstance(key, str):
                raise ProtocolError(
                    f"unserializable message: tdpb1 requires str keys, "
                    f"got {type(key).__name__}"
                )
            append(one_byte[_KEY_ESCAPE])
            _encode_str(out, key)
        vtype = type(value)
        if vtype is str:
            raw = value.encode("utf-8")
            n = len(raw)
            if n < 256:
                append(_T_STR8)
                append(one_byte[n])
            else:
                append(_T_STR32)
                append(_U32.pack(n))
            append(raw)
        elif vtype is int and -128 <= value <= 127:
            append(_T_INT8)
            append(_I8.pack(value))
        elif value is None:
            append(_T_NULL)
        elif vtype is bool:
            append(_T_TRUE if value else _T_FALSE)
        else:
            _encode_value(out, value, 0)
    return b"".join(out)


def encode_field(key: str, value: Any) -> bytes:
    """One field's bytes exactly as :func:`encode` writes them in a body."""
    out: list[bytes] = []
    _encode_key(out, key)
    _encode_value(out, value, 0)
    return b"".join(out)


def op_header_size(body: bytes) -> int:
    """Bytes before an op-tagged body's first field: the op tag and the
    field count, which already counts that field."""
    if not body or body[0] == _TAG_RAW:
        raise ProtocolError("tdpb1 body has no op tag to splice after")
    return 3


def _encode_key(out: list[bytes], key: Any) -> None:
    if not isinstance(key, str):
        raise ProtocolError(
            f"unserializable message: tdpb1 requires str keys, got {type(key).__name__}"
        )
    fid = _FIELD_IDS.get(key)
    if fid is not None:
        out.append(_ONE_BYTE[fid])
    else:
        out.append(_ONE_BYTE[_KEY_ESCAPE])
        _encode_str(out, key)


def _encode_str(out: list[bytes], value: str) -> None:
    raw = value.encode("utf-8")
    if len(raw) < 256:
        out.append(_T_STR8)
        out.append(_ONE_BYTE[len(raw)])
    else:
        out.append(_T_STR32)
        out.append(_U32.pack(len(raw)))
    out.append(raw)


def _encode_value(out: list[bytes], value: Any, depth: int) -> None:
    if depth > _MAX_DEPTH:
        raise ProtocolError("unserializable message: nesting too deep for tdpb1")
    if value is None:
        out.append(_T_NULL)
    elif isinstance(value, bool):
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, int):
        if -128 <= value <= 127:
            out.append(_T_INT8)
            out.append(_I8.pack(value))
        elif -(2**31) <= value < 2**31:
            out.append(_T_INT32)
            out.append(_I32.pack(value))
        elif -(2**63) <= value < 2**63:
            out.append(_T_INT64)
            out.append(_I64.pack(value))
        else:
            raw = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out.append(_T_BIGINT)
            out.append(_U32.pack(len(raw)))
            out.append(raw)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out.append(_F64.pack(value))
    elif isinstance(value, str):
        _encode_str(out, value)
    elif isinstance(value, (list, tuple)):
        out.append(_T_LIST)
        out.append(_U32.pack(len(value)))
        for item in value:
            _encode_value(out, item, depth + 1)
    elif isinstance(value, dict):
        out.append(_T_DICT)
        out.append(_U32.pack(len(value)))
        for key, item in value.items():
            _encode_key(out, key)
            _encode_value(out, item, depth + 1)
    else:
        raise ProtocolError(
            f"unserializable message: {type(value).__name__} is not JSON-compatible"
        )


def decode(data: bytes) -> dict[str, Any]:
    """Decode a frame body; raises ProtocolError on malformed input.

    Mirrors :func:`encode`: the field loop inlines table keys and the
    str8 / int8 / bool / null value tags, deferring everything else to
    :func:`_decode_value`.
    """
    try:
        tag = data[0]
        nfields = (data[1] << 8) | data[2]
        message: dict[str, Any] = {}
        if tag != _TAG_RAW:
            if tag >= len(_OPS):
                raise ProtocolError(f"malformed frame body: unknown op tag {tag}")
            message["op"] = _OPS[tag]
        pos = 3
        size = len(data)
        names, n_names = _FIELD_NAMES, len(_FIELD_NAMES)
        for _ in range(nfields):
            fid = data[pos]
            pos += 1
            if fid < n_names:
                key = names[fid]
            else:
                key, pos = _decode_key(data, pos - 1)
            vtag = data[pos]
            pos += 1
            if vtag == 0x08:
                end = pos + 1 + data[pos]
                if end > size:
                    raise ProtocolError("malformed frame body: truncated")
                message[key] = data[pos + 1:end].decode("utf-8")
                pos = end
            elif vtag == 0x03:
                message[key] = _I8.unpack_from(data, pos)[0]
                pos += 1
            elif vtag == 0x02:
                message[key] = True
            elif vtag == 0x01:
                message[key] = False
            elif vtag == 0x00:
                message[key] = None
            else:
                message[key], pos = _decode_value(data, pos - 1, 0)
        if pos != size:
            raise ProtocolError(
                f"malformed frame body: {size - pos} trailing bytes"
            )
        return message
    except ProtocolError:
        raise
    except (IndexError, struct.error, UnicodeDecodeError, OverflowError) as e:
        raise ProtocolError(f"malformed frame body: {e}") from e


def _decode_key(data: bytes, pos: int) -> tuple[str, int]:
    fid = data[pos]
    pos += 1
    if fid == _KEY_ESCAPE:
        key, pos = _decode_value(data, pos, _MAX_DEPTH)
        if not isinstance(key, str):
            raise ProtocolError("malformed frame body: escaped key is not a string")
        return key, pos
    if fid >= len(_FIELD_NAMES):
        raise ProtocolError(f"malformed frame body: unknown field id {fid}")
    return _FIELD_NAMES[fid], pos


def _take(data: bytes, pos: int, length: int) -> tuple[bytes, int]:
    end = pos + length
    if end > len(data):
        raise ProtocolError("malformed frame body: truncated")
    return data[pos:end], end


def _decode_value(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
    if depth > _MAX_DEPTH:
        raise ProtocolError("malformed frame body: nesting too deep")
    tag = data[pos]
    pos += 1
    if tag == 0x00:
        return None, pos
    if tag == 0x01:
        return False, pos
    if tag == 0x02:
        return True, pos
    if tag == 0x03:
        (v,) = _I8.unpack_from(data, pos)
        return v, pos + 1
    if tag == 0x04:
        (v,) = _I32.unpack_from(data, pos)
        return v, pos + 4
    if tag == 0x05:
        (v,) = _I64.unpack_from(data, pos)
        return v, pos + 8
    if tag == 0x06:
        (n,) = _U32.unpack_from(data, pos)
        raw, pos = _take(data, pos + 4, n)
        return int.from_bytes(raw, "big", signed=True), pos
    if tag == 0x07:
        (v,) = _F64.unpack_from(data, pos)
        return v, pos + 8
    if tag == 0x08:
        n = data[pos]
        raw, pos = _take(data, pos + 1, n)
        return raw.decode("utf-8"), pos
    if tag == 0x09:
        (n,) = _U32.unpack_from(data, pos)
        raw, pos = _take(data, pos + 4, n)
        return raw.decode("utf-8"), pos
    if tag == 0x0A:
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        # every element costs >= 1 byte: reject absurd counts up front
        if count > len(data) - pos:
            raise ProtocolError("malformed frame body: list count exceeds body")
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, depth + 1)
            items.append(item)
        return items, pos
    if tag == 0x0B:
        (count,) = _U32.unpack_from(data, pos)
        pos += 4
        if count > (len(data) - pos) // 2:
            raise ProtocolError("malformed frame body: dict count exceeds body")
        obj: dict[str, Any] = {}
        for _ in range(count):
            key, pos = _decode_key(data, pos)
            value, pos = _decode_value(data, pos, depth + 1)
            obj[key] = value
        return obj, pos
    raise ProtocolError(f"malformed frame body: unknown value tag {tag}")
