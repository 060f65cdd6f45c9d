"""Seeded fixtures for the wire-symmetry program rules.

A minimal but fully symmetric protocol/client/server/store quartet is
the clean baseline; each test derives one violation from it by string
replacement and asserts the matching rule (and only that rule) fires.
"""

import textwrap

import pytest

from repro.analysis.core import ModuleSource, get_rule
from repro.analysis.engine import lint_modules

PROTO = """
    from repro import errors

    OP_PUT = "put"
    OP_GET = "get"
    OP_BATCH = "batch"
    OP_NOTIFY = "notify"

    _ERROR_TYPES = {
        "no_such_attribute": errors.NoSuchAttributeError,
        "protocol": errors.ProtocolError,
    }

    _TYPE_NAMES = {
        errors.NoSuchAttributeError: "no_such_attribute",
        errors.ProtocolError: "protocol",
    }

    def error_fields(exc):
        fields = {"ok": False, "error_type": "protocol", "error": str(exc)}
        return fields

    def ok_reply(req, **fields):
        reply = {"reply_to": req, "ok": True}
        reply.update(fields)
        return reply

    def raise_error(reply, *, op=None):
        error_type = str(reply.get("error_type", "protocol"))
        message = str(reply.get("error", "unknown server error"))
        raise errors.ProtocolError(message)
    """

CLIENT = """
    from repro.attrspace import protocol

    class Client:
        def put(self, attribute: str, value: str, ephemeral: bool = False):
            frame = {"op": protocol.OP_PUT, "attribute": attribute,
                     "value": value}
            if ephemeral:
                frame["ephemeral"] = True
            reply = self._rpc(frame)
            return int(reply["version"])

        def get(self, attribute: str):
            return self._rpc({"op": protocol.OP_GET, "attribute": attribute})

        def put_many(self, items):
            ops = [
                {"op": protocol.OP_PUT, "attribute": str(a), "value": str(v)}
                for a, v in items
            ]
            reply = self._rpc({"op": protocol.OP_BATCH, "ops": ops})
            out = []
            for sub in reply["replies"]:
                out.append(int(sub["version"]))
            return out

        def _on_message(self, message):
            if message.get("op") == protocol.OP_NOTIFY:
                attribute = message["attribute"]
                value = message.get("value")
    """

SERVER = """
    from repro import errors
    from repro.attrspace import protocol

    class Server:
        def _op_put(self, conn, req, request):
            attribute = str(request["attribute"])
            value = str(request["value"])
            ephemeral = bool(request.get("ephemeral", False))
            conn.send(protocol.ok_reply(req, version=1))
            push = {"op": protocol.OP_NOTIFY, "attribute": attribute,
                    "value": value}
            self._push(push)

        def _op_get(self, conn, req, request):
            attribute = str(request["attribute"])
            value = self.store.get(attribute)
            if value is None:
                raise errors.NoSuchAttributeError(attribute)
            conn.send(protocol.ok_reply(req, value=str(value)))

        def _op_batch(self, conn, req, request):
            replies = [self._apply(sub) for sub in request["ops"]]
            conn.send(protocol.ok_reply(req, replies=replies))
    """

STORE = """
    class AttributeStore:
        def _apply_one(self, sub, default_context):
            op = sub["op"]
            attribute = str(sub["attribute"])
            if op == "put":
                value = str(sub["value"])
                return {"ok": True, "version": 1}
            return {"ok": False, "error": "unknown sub-op"}
    """

WIRE_RULES = (
    "frame-field-unread",
    "frame-field-phantom",
    "frame-field-type-mismatch",
    "error-code-unmapped",
)


def parse(tmp_path, name, code, *, modname):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return ModuleSource.parse(path, modname=modname)


def fixture_set(tmp_path, *, proto=PROTO, client=CLIENT, server=SERVER,
                store=STORE):
    modules = [
        parse(tmp_path, "protocol", proto, modname="repro.attrspace.protocol"),
        parse(tmp_path, "client", client, modname="repro.attrspace.client"),
        parse(tmp_path, "server", server, modname="repro.attrspace.server"),
    ]
    if store is not None:
        modules.append(
            parse(tmp_path, "store", store, modname="repro.attrspace.store")
        )
    return modules


def lint_wire(modules, *rules):
    names = rules or WIRE_RULES
    return lint_modules(modules, rules=[get_rule(n) for n in names])


def test_symmetric_fixture_is_clean(tmp_path):
    assert lint_wire(fixture_set(tmp_path)) == []


def test_unread_request_field_fires(tmp_path):
    # The server stops reading "ephemeral": the client still encodes it.
    server = SERVER.replace(
        '            ephemeral = bool(request.get("ephemeral", False))\n', ""
    )
    findings = lint_wire(fixture_set(tmp_path, server=server),
                         "frame-field-unread")
    assert len(findings) == 1
    assert "'ephemeral'" in findings[0].message
    assert "never read by the server" in findings[0].message
    # anchored at the client-side write site
    assert findings[0].path.endswith("client.py")


def test_unread_reply_field_fires(tmp_path):
    # The client stops decoding "version" from the put reply.
    client = CLIENT.replace(
        'return int(reply["version"])', 'return reply["ok"]'
    )
    findings = lint_wire(fixture_set(tmp_path, client=client),
                         "frame-field-unread")
    assert any("'version'" in f.message and "op 'put'" in f.message
               for f in findings)


def test_escaped_reply_is_not_flagged(tmp_path):
    # get() returns the whole reply (escapes); the un-decoded "value"
    # reply field must NOT be reported as unread.
    findings = lint_wire(fixture_set(tmp_path), "frame-field-unread")
    assert findings == []


def test_phantom_read_fires(tmp_path):
    # The server reads a "lease" field no client encoder ever writes.
    server = SERVER.replace(
        'value = str(request["value"])',
        'value = str(request["value"])\n'
        '            lease = request.get("lease", 30)',
    )
    findings = lint_wire(fixture_set(tmp_path, server=server),
                         "frame-field-phantom")
    assert len(findings) == 1
    assert "'lease'" in findings[0].message
    assert "silently defaults" in findings[0].message
    assert findings[0].path.endswith("server.py")


def test_phantom_subop_read_fires(tmp_path):
    # The store reads a per-sub-op "context" override the client cannot
    # encode — the regression behind the real store fix.
    store = STORE.replace(
        'op = sub["op"]',
        'op = sub["op"]\n'
        '            context = sub.get("context", default_context)',
    )
    findings = lint_wire(fixture_set(tmp_path, store=store),
                         "frame-field-phantom")
    assert len(findings) == 1
    assert "batch sub-op 'put'" in findings[0].message
    assert "'context'" in findings[0].message


def test_subop_checks_skipped_without_store(tmp_path):
    # Without the store module the sub-op side is unknown: stay silent
    # rather than reporting every sub-op field as unread.
    assert lint_wire(fixture_set(tmp_path, store=None)) == []


def test_type_mismatch_fires(tmp_path):
    # Writer pins str, reader casts to int.
    server = SERVER.replace(
        'attribute = str(request["attribute"])\n            value = str',
        'attribute = int(request["attribute"])\n            value = str',
    )
    findings = lint_wire(fixture_set(tmp_path, server=server),
                         "frame-field-type-mismatch")
    assert len(findings) == 1
    assert "'attribute'" in findings[0].message
    assert "['str']" in findings[0].message and "['int']" in findings[0].message


def test_optional_reader_tolerates_null(tmp_path):
    # ephemeral: writer bool, reader bool-with-default — and because the
    # writer is conditional the reader's implied null tolerance must not
    # produce a mismatch.  Covered by the clean baseline, pinned here.
    findings = lint_wire(fixture_set(tmp_path), "frame-field-type-mismatch")
    assert findings == []


def test_unmapped_raised_error_fires(tmp_path):
    server = SERVER.replace(
        "raise errors.NoSuchAttributeError(attribute)",
        "raise errors.GetTimeoutError(attribute)",
    )
    findings = lint_wire(fixture_set(tmp_path, server=server),
                         "error-code-unmapped")
    assert len(findings) == 1
    assert "GetTimeoutError" in findings[0].message
    assert "no wire error mapping" in findings[0].message
    assert findings[0].path.endswith("server.py")


def test_base_before_subclass_encode_order_fires(tmp_path):
    # SpaceClosedError listed before its subclass ReconnectFailedError:
    # the subclass can never encode (isinstance walk hits the base first).
    proto = PROTO.replace(
        '        "no_such_attribute": errors.NoSuchAttributeError,\n'
        '        "protocol": errors.ProtocolError,',
        '        "no_such_attribute": errors.NoSuchAttributeError,\n'
        '        "protocol": errors.ProtocolError,\n'
        '        "space_closed": errors.SpaceClosedError,\n'
        '        "reconnect_failed": errors.ReconnectFailedError,',
    ).replace(
        "        errors.NoSuchAttributeError: \"no_such_attribute\",\n"
        "        errors.ProtocolError: \"protocol\",",
        "        errors.NoSuchAttributeError: \"no_such_attribute\",\n"
        "        errors.ProtocolError: \"protocol\",\n"
        "        errors.SpaceClosedError: \"space_closed\",\n"
        "        errors.ReconnectFailedError: \"reconnect_failed\",",
    )
    findings = lint_wire(fixture_set(tmp_path, proto=proto),
                         "error-code-unmapped")
    assert len(findings) == 1
    assert "SpaceClosedError before its subclass" in findings[0].message


def test_broken_bijection_fires(tmp_path):
    # "protocol" decodes to a different class than the one encoding it.
    proto = PROTO.replace(
        '"protocol": errors.ProtocolError,', '"protocol": errors.ContextError,'
    )
    findings = lint_wire(fixture_set(tmp_path, proto=proto),
                         "error-code-unmapped")
    assert any("decodes to ContextError" in f.message for f in findings)


def test_silent_without_trio(tmp_path):
    modules = [
        parse(tmp_path, "client", CLIENT, modname="repro.attrspace.client"),
    ]
    assert lint_wire(modules) == []


def test_suppression_honored(tmp_path):
    server = SERVER.replace(
        '            ephemeral = bool(request.get("ephemeral", False))\n', ""
    )
    client = CLIENT.replace(
        'frame["ephemeral"] = True',
        'frame["ephemeral"] = True  # tdp-lint: off(frame-field-unread)',
    )
    findings = lint_wire(fixture_set(tmp_path, client=client, server=server),
                         "frame-field-unread")
    assert findings == []


# -- raw-wire-codec -----------------------------------------------------------


def lint_codec(modules):
    return lint_modules(modules, rules=[get_rule("raw-wire-codec")])


def test_raw_json_in_wire_package_fires(tmp_path):
    mod = parse(
        tmp_path, "framing",
        """
        import json

        def encode(message):
            return json.dumps(message).encode()
        """,
        modname="repro.transport.framing",
    )
    findings = lint_codec([mod])
    assert len(findings) == 1
    assert "json.dumps" in findings[0].message
    assert "repro.attrspace.protocol" in findings[0].message


def test_from_import_alias_fires(tmp_path):
    mod = parse(
        tmp_path, "client",
        """
        from json import loads as jloads

        def decode(data):
            return jloads(data)
        """,
        modname="repro.attrspace.client",
    )
    findings = lint_codec([mod])
    assert len(findings) == 1
    assert "jloads" in findings[0].message


@pytest.mark.parametrize("code,offender", [
    ("import json as j\nj.dumps(m)\n", "j.dumps (json.dumps)"),
    ("import json as j\nj.loads(b)\n", "j.loads (json.loads)"),
    ("import struct as s\ns.pack('>I', 0)\n", "s.pack (struct.pack)"),
    ("import json as j\nj.JSONEncoder()\n", "j.JSONEncoder (json.JSONEncoder)"),
])
def test_module_alias_fires(tmp_path, code, offender):
    mod = parse(tmp_path, "store", code, modname="repro.attrspace.store")
    findings = lint_codec([mod])
    assert [f.message.split(" on the wire path")[0] for f in findings] == [offender]


def test_json_encoder_and_scanner_outside_codec_fire(tmp_path):
    mod = parse(
        tmp_path, "inmem",
        """
        import json
        import json.scanner
        from json import JSONDecoder
        from json.encoder import c_make_encoder

        _scan = json.scanner.c_make_scanner(JSONDecoder())

        def copy(message):
            encode = c_make_encoder({}, json.JSONEncoder().default,
                                    json.encoder.encode_basestring_ascii,
                                    None, ":", ",", False, False, True)
            return _scan("".join(encode(message, 0)), 0)[0]
        """,
        modname="repro.transport.inmem",
    )
    findings = lint_codec([mod])
    offenders = sorted(f.message.split(" on the wire path")[0] for f in findings)
    assert offenders == [
        "from json import JSONDecoder",
        "from json.encoder import",
        "import json.scanner",
        "json.JSONEncoder",
        "json.encoder",
        "json.scanner",
    ]
    assert all("repro.attrspace.protocol" in f.message for f in findings)


def test_json_machinery_in_codec_module_is_exempt(tmp_path):
    mod = parse(
        tmp_path, "protocol",
        """
        import json
        import json.encoder

        _scan = json.JSONDecoder().scan_once
        _escape = json.encoder.encode_basestring_ascii
        """,
        modname="repro.attrspace.protocol",
    )
    assert lint_codec([mod]) == []


def test_codec_module_is_exempt(tmp_path):
    mod = parse(
        tmp_path, "protocol",
        """
        import json

        def encode_body(message):
            return json.dumps(message).encode()
        """,
        modname="repro.attrspace.protocol",
    )
    assert lint_codec([mod]) == []


def test_non_wire_package_is_exempt(tmp_path):
    mod = parse(
        tmp_path, "export",
        """
        import json

        def write(events):
            return json.dumps(events)
        """,
        modname="repro.obs.export",
    )
    assert lint_codec([mod]) == []


def test_struct_pack_outside_codec_fires(tmp_path):
    mod = parse(
        tmp_path, "tcp",
        """
        import struct

        def header(n):
            return struct.pack(">I", n)
        """,
        modname="repro.transport.tcp",
    )
    findings = lint_codec([mod])
    assert len(findings) == 1
    assert "struct.pack" in findings[0].message
    assert "repro.attrspace.bincodec" in findings[0].message


def test_struct_from_import_alias_fires(tmp_path):
    mod = parse(
        tmp_path, "server",
        """
        from struct import unpack_from as peek

        def read(buf):
            return peek(">I", buf, 0)
        """,
        modname="repro.attrspace.server",
    )
    findings = lint_codec([mod])
    assert len(findings) == 1
    assert "peek" in findings[0].message


def test_bincodec_and_framing_may_struct_pack(tmp_path):
    mods = [
        parse(
            tmp_path, "bincodec",
            """
            import struct

            def encode_int(n):
                return struct.pack(">q", n)
            """,
            modname="repro.attrspace.bincodec",
        ),
        parse(
            tmp_path, "framing",
            """
            import struct

            _LEN = struct.Struct(">I")

            def frame(body):
                return _LEN.pack(len(body)) + body
            """,
            modname="repro.transport.framing",
        ),
    ]
    assert lint_codec(mods) == []


def test_protocol_module_may_not_struct_pack(tmp_path):
    # The JSON codec seam is sanctioned for json, not for byte packing —
    # binary layout lives in bincodec only.
    mod = parse(
        tmp_path, "protocol",
        """
        import struct

        def encode_body(message):
            return struct.pack(">I", 0)
        """,
        modname="repro.attrspace.protocol",
    )
    findings = lint_codec([mod])
    assert len(findings) == 1
