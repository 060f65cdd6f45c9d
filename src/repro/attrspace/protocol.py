"""Wire protocol between attribute-space clients and LASS/CASS servers.

Requests are frames like ``{"op": "put", "req": 7, ...}``; every request
gets exactly one reply ``{"reply_to": 7, "ok": true, ...}``.  The server
may also push unsolicited ``{"op": "notify", ...}`` frames for
subscriptions.  Errors travel as ``{"ok": false, "error_type": ...,
"error": ...}`` and are re-raised client-side as the matching exception
from :mod:`repro.errors`.

This module is also the **sanctioned wire codec**: the only place that
may touch ``json`` (``dumps``/``loads``, its encoder and its scanner) on
protocol data (enforced by the ``raw-wire-codec`` lint rule).  The
transport framing layer delegates its body serialization here, so a
codec swaps in behind :func:`encode_body`/:func:`decode_body` without
touching any other module.  The in-memory transport sends no bytes: it
delivers :func:`copy_body`'s copy, which is what the JSON round trip
would return, made in one C-level pass (or a dict copy for a flat
message) with the same refusals.  The inferred per-op field schema lives
in the committed ``protocol.lock.json`` (see ``python -m repro protocol``).
"""

from __future__ import annotations

import json
import json.encoder
from typing import Any

from repro import errors, obs
from repro.attrspace import bincodec

#: Codec names a transport hello may advertise.  ``json`` is the
#: mandatory fallback every peer must accept; ``tdpb1`` is the
#: length-prefixed binary codec (see :mod:`repro.attrspace.bincodec`).
#: Preference order: first supported entry wins during negotiation.
CODEC_JSON = "json"
CODEC_BINARY = bincodec.CODEC_NAME
SUPPORTED_CODECS = (CODEC_BINARY, CODEC_JSON)

# Request operations
OP_ATTACH = "attach"        # join a context (tdp_init); optional fields
                            # session (token) + lease_ttl (seconds) open or
                            # resume a server-side session lease
OP_DETACH = "detach"        # leave a context (tdp_exit); optional session
OP_PUT = "put"              # optional field ephemeral (bool): the value is
                            # purged when its writer's lease expires/detaches
OP_GET = "get"              # fields: block (bool), timeout (float|None)
OP_REMOVE = "remove"
OP_LIST = "list"
OP_SNAPSHOT = "snapshot"
OP_SUBSCRIBE = "subscribe"  # fields: pattern
OP_UNSUBSCRIBE = "unsubscribe"
OP_PING = "ping"
OP_BATCH = "batch"          # fields: ops (list of sub-requests, each a
                            # req-less put/get/remove frame); answered by
                            # one reply whose "replies" list matches the
                            # sub-requests positionally.  Sub-ops apply
                            # independently, in order — a failed sub-op
                            # carries its own error entry and does not
                            # abort the ones after it.

OP_SUB_AGG = "sub_agg"      # LASS->CASS aggregated subscription: fields
                            # pattern, agg (the LASS's stable aggregation
                            # id), origin (the LASS origin id used for
                            # echo suppression and fan-out dedup)

# Server push
OP_NOTIFY = "notify"

#: Optional observability field on any frame: ``{"t": trace_id, "s":
#: span_id}`` (see :mod:`repro.obs.trace`).  Clients stamp it on
#: requests at registration time — so reconnect replays carry the
#: original context — and servers stamp it on notify pushes so a
#: subscriber's callback joins the putter's trace.  Servers ignore it
#: when observability is disabled; it is never required.
OBS_FIELD = "obs"

#: Attribute-name prefix under which a server publishes its own metrics
#: snapshot into the requesting context on demand: a get of
#: ``tdp.stats.puts`` (see ``repro.tdp.wellknown.Attr.stat``) makes the
#: server refresh every ``tdp.stats.*`` attribute first, so tools can
#: ``tdp_get`` live server statistics through the space itself.
STATS_PREFIX = "tdp.stats."

_ERROR_TYPES: dict[str, type[Exception]] = {
    "no_such_attribute": errors.NoSuchAttributeError,
    "attribute_format": errors.AttributeFormatError,
    "context": errors.ContextError,
    "get_timeout": errors.GetTimeoutError,
    "protocol": errors.ProtocolError,
    "reconnect_failed": errors.ReconnectFailedError,
    "space_closed": errors.SpaceClosedError,
}

_TYPE_NAMES = {
    errors.NoSuchAttributeError: "no_such_attribute",
    errors.AttributeFormatError: "attribute_format",
    errors.ContextError: "context",
    errors.GetTimeoutError: "get_timeout",
    errors.ProtocolError: "protocol",
    # Subclass before base: _TYPE_NAMES is scanned in order by
    # error_reply's isinstance walk.
    errors.ReconnectFailedError: "reconnect_failed",
    errors.SpaceClosedError: "space_closed",
}


def error_fields(exc: Exception) -> dict[str, Any]:
    """The ``ok``/``error_type``/``error`` fields for an exception.

    Shared by whole-request error replies and per-sub-op entries in a
    batch reply.  ``NoSuchAttributeError`` additionally carries its
    attribute/context so :func:`raise_error` reconstructs it losslessly.
    """
    fields: dict[str, Any] = {"ok": False, "error_type": "protocol", "error": str(exc)}
    for klass, name in _TYPE_NAMES.items():
        if isinstance(exc, klass):
            fields["error_type"] = name
            break
    if isinstance(exc, errors.NoSuchAttributeError):
        fields["attribute"] = exc.attribute
        if exc.context is not None:
            fields["context"] = exc.context
    return fields


def error_reply(req: int, exc: Exception) -> dict[str, Any]:
    """Build the error reply frame for an exception."""
    return {"reply_to": req, **error_fields(exc)}


def ok_reply(req: int, **fields: Any) -> dict[str, Any]:
    reply: dict[str, Any] = {"reply_to": req, "ok": True}
    reply.update(fields)
    return reply


def raise_error(reply: dict[str, Any], *, op: str | None = None) -> None:
    """Re-raise the server-side error carried in an error reply.

    ``op`` (when the caller knows which request this reply answers)
    annotates decode-side :class:`~repro.errors.ProtocolError`s with the
    op name and req id, so a drifted frame is attributable from the
    message alone.
    """
    error_type = str(reply.get("error_type", "protocol"))
    message = str(reply.get("error", "unknown server error"))
    klass = _ERROR_TYPES.get(error_type, errors.ProtocolError)
    if klass is errors.NoSuchAttributeError:
        attribute = str(reply.get("attribute", message))
        context = reply.get("context")
        raise errors.NoSuchAttributeError(attribute, context)
    if klass is errors.ProtocolError:
        raise frame_error(message, frame=reply, op=op)
    raise klass(message)


# -- sanctioned codec ---------------------------------------------------------


def negotiate_codec(offered: Any) -> str:
    """Server-side codec choice for a hello's ``codecs`` advertisement.

    A missing, corrupt, or unrecognized advertisement falls back to the
    mandatory JSON codec — negotiation can narrow the format, never
    break the connection.
    """
    if isinstance(offered, (list, tuple)):
        for codec in SUPPORTED_CODECS:
            if codec in offered:
                return codec
    return CODEC_JSON


# The JSON codec is json's own C encoder and scanner with the settings of
# ``json.dumps(m, separators=(",", ":"))``: ASCII-only text (so its length
# is the body's byte count), NaN and infinities allowed, and
# ``JSONEncoder.default``'s error text.  An encoder is built per call
# because its ``markers`` dict (the circular-reference check) is state
# that a failed encode leaves behind.  The decoder's scanner is
# ``json.scanner.c_make_scanner``'s and clears its own state after every
# call, which is how ``json.loads`` shares one across threads too.
_json_default = json.JSONEncoder().default
_json_escape = json.encoder.encode_basestring_ascii
_json_decoder = json.JSONDecoder()
_json_scan = _json_decoder.scan_once


def _json_text(obj: Any) -> str:
    """``json.dumps(obj, separators=(",", ":"))`` in one C-level pass;
    raises what it raises (TypeError, ValueError)."""
    return "".join(json.encoder.c_make_encoder(
        {}, _json_default, _json_escape, None, ":", ",", False, False, True,
    )(obj, 0))


def encode_body(message: dict[str, Any], codec: str = CODEC_JSON) -> bytes:
    """Serialize one frame body to bytes (no transport length prefix)."""
    if codec == CODEC_BINARY:
        return bincodec.encode(message)
    if codec != CODEC_JSON:
        raise errors.ProtocolError(f"unknown wire codec {codec!r}")
    try:
        return _json_text(message).encode("utf-8")
    except (TypeError, ValueError) as e:
        raise errors.ProtocolError(f"unserializable message: {e}") from e


#: A flat message's value types besides ``str`` and ``int``: each one's
#: JSON text reads back as an equal value of the same type.
_FLAT_SCALARS = frozenset({bool, float, type(None)})
#: A flat ``int`` lies within this bound, far inside the 4 300-digit
#: limit on integer strings, so its text is at most 20 characters.
_FLAT_INT_BOUND = 1 << 63
#: JSON characters per field besides its strings' contents: two pairs
#: of quotes, the colon and the comma, and a scalar's text (a float's
#: ``repr`` is at most 24 characters); an ASCII character escapes to at
#: most 6 (``\u001f``).
_FLAT_FIELD_CHARS = 30
_FLAT_CHAR_CHARS = 6


def copy_body(
    message: dict[str, Any], limit: int, sized: bool = False
) -> tuple[dict[str, Any], int | None]:
    """What ``decode_body(encode_body(message))`` returns, made without
    the bytes, and the length of those bytes.

    Refuses what :func:`encode_body` refuses, with the same
    :class:`~repro.errors.ProtocolError`, and a body over ``limit`` bytes.
    A *flat* message (exactly a ``dict`` of ASCII ``str`` keys to ASCII
    ``str``, ``bool``, ``None``, ``float`` or ``int`` values within
    ±2⁶³, provably under ``limit``) is its own round trip: it comes back
    as ``dict(message)``, with the length ``None`` unless ``sized``.
    Anything else takes one C-level JSON pass: encode to text, scan it
    back.
    """
    if not sized and type(message) is dict:
        chars = 0
        for key, value in message.items():
            if type(key) is not str or not key.isascii():
                break
            kind = type(value)
            if kind is str:
                if not value.isascii():
                    break
                chars += len(value)
            elif kind is int:
                if not -_FLAT_INT_BOUND <= value <= _FLAT_INT_BOUND:
                    break
            elif kind not in _FLAT_SCALARS:
                break
            chars += len(key)
        else:
            if (_FLAT_CHAR_CHARS * chars + _FLAT_FIELD_CHARS * len(message)
                    + 2 <= limit):
                return dict(message), None
    if not isinstance(message, dict):
        raise errors.ProtocolError(
            f"message must be a dict, got {type(message).__name__}"
        )
    try:
        text = _json_text(message)
    except (TypeError, ValueError) as e:
        raise errors.ProtocolError(f"unserializable message: {e}") from e
    if len(text) > limit:
        raise errors.ProtocolError(f"frame too large: {len(text)} bytes")
    return _json_scan(text, 0)[0], len(text)


def encode_field(key: str, value: Any, codec: str = CODEC_JSON) -> bytes:
    """One field's bytes as :func:`encode_body` writes them when the
    field is followed by another: JSON's ``"key":value,``, or tdpb1's
    key id and tagged value."""
    if codec == CODEC_BINARY:
        return bincodec.encode_field(key, value)
    try:
        return (_json_text({key: value})[1:-1] + ",").encode("utf-8")
    except (TypeError, ValueError) as e:
        raise errors.ProtocolError(f"unserializable field {key!r}: {e}") from e


def op_header_size(body: bytes, op: str, codec: str = CODEC_JSON) -> int:
    """Bytes of ``body`` before its first field after the op: a field
    spliced in there is where :func:`encode_body` puts a message's
    second key.  The JSON header is ``{"op":"<op>",``; a tdpb1 header's
    field count already counts the field that follows it."""
    if codec == CODEC_BINARY:
        return bincodec.op_header_size(body)
    header = ('{"op":' + _json_text(op) + ",").encode("utf-8")
    if not body.startswith(header):
        raise errors.ProtocolError(f"JSON body does not open with op {op!r}")
    return len(header)


def decode_body(data: bytes, binary: bool = False) -> dict[str, Any]:
    """Deserialize a frame body; raises ProtocolError on malformed input.

    The frame header names the body codec per frame (``binary`` flag
    bit), so decode never depends on negotiation state — a peer may
    switch codecs mid-stream (it does, right after the hello ack) and
    both sides stay in sync.
    """
    if binary:
        try:
            return bincodec.decode(data)
        except errors.ProtocolError as e:
            raise frame_error(str(e)) from e
    try:
        obj = _json_decoder.decode(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as e:
        raise frame_error(f"malformed frame body: {e}") from e
    if not isinstance(obj, dict):
        raise frame_error(
            f"frame body must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def encode_payload(payload: dict[str, Any]) -> str:
    """Serialize a control payload that rides an attribute *value*.

    The RT-request channel (``repro.tdp.process``) tunnels structured
    requests through string-valued attributes; those payloads go through
    the sanctioned codec too so they follow the wire format when the
    codec changes.
    """
    try:
        return json.dumps(payload, separators=(",", ":"), sort_keys=True)
    except (TypeError, ValueError) as e:
        raise errors.ProtocolError(f"unserializable payload: {e}") from e


def decode_payload(text: str) -> dict[str, Any]:
    """Deserialize an attribute-value control payload."""
    try:
        obj = json.loads(text)
    except ValueError as e:
        raise errors.ProtocolError(f"malformed control payload: {e}") from e
    if not isinstance(obj, dict):
        raise errors.ProtocolError(
            f"control payload must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# -- decode/dispatch error context -------------------------------------------


def _trim_frame(frame: Any) -> str:
    text = repr(frame)
    return text[:509] + "..." if len(text) > 512 else text


def frame_error(
    message: str,
    *,
    frame: dict[str, Any] | None = None,
    op: str | None = None,
    req: Any = None,
) -> errors.ProtocolError:
    """Build a :class:`~repro.errors.ProtocolError` with frame context.

    The op name and req id (taken from ``frame`` when not given) are
    appended to the message, and — when observability is on — the
    offending frame is captured in the flight recorder, so a protocol
    failure in a long-running daemon is diagnosable after the fact.
    Allocation-free when observability is disabled beyond the message
    itself.
    """
    if isinstance(frame, dict):
        if op is None:
            raw_op = frame.get("op")
            op = raw_op if isinstance(raw_op, str) else None
        if req is None:
            req = frame.get("req", frame.get("reply_to"))
    context = []
    if op is not None:
        context.append(f"op={op!r}")
    if req is not None:
        context.append(f"req={req}")
    if context:
        message = f"{message} ({', '.join(context)})"
    if frame is not None and obs.enabled():
        obs.record(
            "protocol.frame_error",
            actor="codec",
            error=message,
            frame=_trim_frame(frame),
        )
    return errors.ProtocolError(message)
