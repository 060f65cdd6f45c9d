"""Seeded fixtures for the protocol-exhaustiveness program rule, which
reads the wire-schema inference: a server handler or push site, and a
frame the client builds, for every ``OP_*`` constant."""

import textwrap

from repro.analysis.core import ModuleSource, get_rule
from repro.analysis.engine import lint_modules

PROTO = """
    OP_GET = "get"
    OP_PUT = "put"
    OP_NOTIFY = "notify"
    NOT_AN_OP = "ignored"
    """

SERVER_COMPLETE = """
    from repro.attrspace import protocol

    class Server:
        def _op_get(self, payload):
            return {}

        def _op_put(self, payload):
            return {}

        def _push(self, channel):
            channel.send({"op": protocol.OP_NOTIFY})
    """

CLIENT_COMPLETE = """
    from repro.attrspace import protocol

    class Client:
        def get(self):
            self._send({"op": protocol.OP_GET})

        def put(self):
            self._send({"op": protocol.OP_PUT})

        def _on_frame(self, frame):
            if frame["op"] == protocol.OP_NOTIFY:
                pass
    """


def parse(tmp_path, name, code, *, modname):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return ModuleSource.parse(path, modname=modname)


def lint_protocol(modules):
    return lint_modules(modules, rules=[get_rule("protocol-exhaustiveness")])


def fixture_set(tmp_path, *, server=SERVER_COMPLETE, client=CLIENT_COMPLETE):
    return [
        parse(tmp_path, "protocol", PROTO, modname="repro.attrspace.protocol"),
        parse(tmp_path, "server", server, modname="repro.attrspace.server"),
        parse(tmp_path, "client", client, modname="repro.attrspace.client"),
    ]


def test_complete_plumbing_is_clean(tmp_path):
    assert lint_protocol(fixture_set(tmp_path)) == []


def test_missing_server_dispatch_fires(tmp_path):
    server = SERVER_COMPLETE.replace("def _op_put", "def _renamed_put")
    findings = lint_protocol(fixture_set(tmp_path, server=server))
    assert len(findings) == 1
    assert "OP_PUT" in findings[0].message
    assert "_op_put" in findings[0].message
    # the finding anchors at the constant's declaration in protocol.py
    assert findings[0].path.endswith("protocol.py")


def test_server_push_reference_counts_as_dispatch(tmp_path):
    # OP_NOTIFY has no _op_notify method; the send-side reference in
    # _push satisfies the rule (push ops are sent, not dispatched)
    assert lint_protocol(fixture_set(tmp_path)) == []


def test_missing_client_encoder_fires(tmp_path):
    client = CLIENT_COMPLETE.replace('self._send({"op": protocol.OP_PUT})', "pass")
    findings = lint_protocol(fixture_set(tmp_path, client=client))
    assert len(findings) == 1
    assert "OP_PUT" in findings[0].message
    assert "client" in findings[0].message


def test_silent_without_protocol_module(tmp_path):
    modules = [
        parse(tmp_path, "server", SERVER_COMPLETE, modname="repro.attrspace.server"),
    ]
    assert lint_protocol(modules) == []


def test_suppression_honored(tmp_path):
    proto = PROTO.replace(
        'OP_PUT = "put"',
        'OP_PUT = "put"  # tdp-lint: off(protocol-exhaustiveness)',
    )
    server = SERVER_COMPLETE.replace("def _op_put", "def _renamed_put")
    modules = [
        parse(tmp_path, "protocol", proto, modname="repro.attrspace.protocol"),
        parse(tmp_path, "server", server, modname="repro.attrspace.server"),
        parse(tmp_path, "client", CLIENT_COMPLETE, modname="repro.attrspace.client"),
    ]
    assert lint_protocol(modules) == []


def test_real_tree_is_exhaustive():
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src" / "repro" / "attrspace"
    modules = [
        ModuleSource.parse(src / "protocol.py"),
        ModuleSource.parse(src / "server.py"),
        ModuleSource.parse(src / "client.py"),
    ]
    assert lint_protocol(modules) == []
