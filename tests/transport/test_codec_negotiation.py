"""Codec negotiation matrix for the TCP hello handshake.

Three rows: both sides speak the binary codec (the happy path the bench
relies on), an old client that sends a bare hello and must stay on JSON
without ever seeing an ack, and a corrupt ``codecs`` field that must
degrade to JSON rather than kill the connection.  The server side of
every row is the serving loop.
"""

import socket

import pytest

from repro.attrspace import protocol
from repro.attrspace.client import AttributeSpaceClient
from repro.attrspace.server import AttributeSpaceServer, ServerRole
from repro.transport import framing
from repro.transport.framing import FrameReader
from repro.transport.tcp import TcpTransport
from tests.served import ServedListener


@pytest.fixture
def transport():
    return TcpTransport()


def codec_of(end):
    """The codec the loop negotiated for a served connection."""
    return end.channel._conn.codec


def recv_raw(sock, reader, timeout=5.0):
    """Read one frame the way a hand-rolled peer would."""
    sock.settimeout(timeout)
    while True:
        for message in reader.feed(sock.recv(65536)):
            return message


class TestBinaryBothSides:
    def test_both_channels_negotiate_tdpb1(self, transport):
        listener = ServedListener(transport.listen("node1"))
        client = transport.connect("submit", listener.endpoint, timeout=5.0)
        server_side = listener.next_end()
        try:
            assert codec_of(server_side) == protocol.CODEC_BINARY
            # The client adopts the codec when it consumes the ack —
            # which happens on its first recv.
            server_side.send({"op": "ping"})
            assert client.recv(timeout=5.0) == {"op": "ping"}
            assert client.codec == protocol.CODEC_BINARY
            client.send({"op": "ping", "t": 1.5})
            assert server_side.recv(timeout=5.0) == {"op": "ping", "t": 1.5}
        finally:
            client.close()
            server_side.close()
            listener.close()

    def test_rpc_and_notify_over_binary(self, transport):
        server = AttributeSpaceServer(transport, "node1", role=ServerRole.CASS)
        channel = transport.connect("submit", server.endpoint, timeout=5.0)
        client = AttributeSpaceClient(channel, context="j", member="m")
        try:
            seen = []
            client.subscribe("watched", lambda n, arg: seen.append(n.attribute))
            assert client.put("watched", "v1") == 1
            assert client.get("watched") == "v1"
            assert client.wait_event(timeout=5.0)
            client.service_events()
            assert seen == ["watched"]
            assert channel.codec == protocol.CODEC_BINARY
        finally:
            client.close()
            server.stop()


class TestOldClientFallback:
    def test_bare_hello_stays_json_and_gets_no_ack(self, transport):
        listener = ServedListener(transport.listen("node1"))
        sock = socket.create_connection(("127.0.0.1", listener.endpoint.port))
        reader = FrameReader()
        try:
            # A pre-negotiation peer: hello without a "codecs" field.
            sock.sendall(framing.encode_frame({"hello": "old"}))
            server_side = listener.next_end()
            assert codec_of(server_side) == protocol.CODEC_JSON

            # The very first frame the old client sees must be protocol
            # traffic, not a hello_ack it would misparse.
            server_side.send({"op": "ping", "s": "first"})
            frame = recv_raw(sock, reader)
            assert frame == {"op": "ping", "s": "first"}

            # And its raw JSON frames decode fine server-side.
            sock.sendall(framing.encode_frame({"op": "ping"}))
            assert server_side.recv(timeout=5.0) == {"op": "ping"}
            server_side.close()
        finally:
            sock.close()
            listener.close()


class TestCorruptNegotiation:
    @pytest.mark.parametrize("codecs", [
        "tdpb1",           # string, not a list
        42,                # wrong type entirely
        ["gzip", "zstd"],  # no supported name
        [3, None],         # non-string entries
        [],                # empty offer
    ])
    def test_corrupt_codecs_field_degrades_to_json(self, transport, codecs):
        listener = ServedListener(transport.listen("node1"))
        sock = socket.create_connection(("127.0.0.1", listener.endpoint.port))
        reader = FrameReader()
        try:
            sock.sendall(framing.encode_frame({"hello": "weird", "codecs": codecs}))
            server_side = listener.next_end()
            assert codec_of(server_side) == protocol.CODEC_JSON

            # The key was present, so the ack is sent — naming JSON.
            ack = recv_raw(sock, reader)
            assert ack == {"hello_ack": "node1", "codec": protocol.CODEC_JSON}
            server_side.close()
        finally:
            sock.close()
            listener.close()

    def test_client_ignores_unsupported_ack_codec(self, transport):
        # A server-side ack naming a codec the client does not support
        # must leave the client on JSON, not crash it.
        listener = ServedListener(transport.listen("node1"))
        client = transport.connect("submit", listener.endpoint, timeout=5.0)
        server_side = listener.next_end()
        try:
            # The channel only consumes the *first* pending frame as an
            # ack, so drive the adoption path directly.
            client._adopt_codec("zstd9")
            server_side.send({"op": "ping"})
            assert client.recv(timeout=5.0) == {"op": "ping"}
            assert client.codec == protocol.CODEC_BINARY  # real ack won
            client._adopt_codec("zstd9")
            assert client.codec == protocol.CODEC_BINARY
        finally:
            client.close()
            server_side.close()
            listener.close()


class TestNegotiateCodecUnit:
    def test_prefers_binary_when_offered(self):
        assert protocol.negotiate_codec(["tdpb1", "json"]) == "tdpb1"
        assert protocol.negotiate_codec(["json", "tdpb1"]) == "tdpb1"

    def test_unknown_names_fall_through(self):
        assert protocol.negotiate_codec(["zstd", "json"]) == "json"
        assert protocol.negotiate_codec(["zstd"]) == "json"

    def test_garbage_is_json(self):
        for garbage in (None, "tdpb1", 7, {"tdpb1": True}, [3, None]):
            assert protocol.negotiate_codec(garbage) == "json"

    def test_peer_gone_before_hello_is_never_announced(self):
        # A peer that dies before its hello never becomes a channel, and
        # the loop goes on to serve the next one.
        transport = TcpTransport()
        listener = ServedListener(transport.listen("node1"))
        try:
            sock = socket.create_connection(("127.0.0.1", listener.endpoint.port))
            sock.close()  # peer gone before any hello
            client = transport.connect("submit", listener.endpoint, timeout=5.0)
            assert listener.next_end().remote_host == "submit"
            client.close()
        finally:
            listener.close()
