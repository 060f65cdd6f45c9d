"""Proxy tunnel tests: the Section 2.4 firewall-crossing path."""

import pytest

from repro.errors import FirewallBlockedError, ProxyError
from repro.net.address import Endpoint
from repro.net.topology import Network
from repro.transport.inmem import InMemoryTransport
from repro.transport.proxy import ProxyServer, connect_maybe_proxied, connect_via_proxy


@pytest.fixture
def firewalled():
    """Paper topology: tool front-end on 'submit', daemon on private 'node1'.

    The private zone blocks everything except the pinhole to the gateway
    host, which is where the RM's proxy runs (here the gateway lives in
    the campus zone and cluster nodes may dial only it).
    """
    net = Network()
    net.add_zone("campus")
    net.add_private_zone("cluster")
    net.add_host("submit", "campus")
    net.add_host("gateway", "campus")
    net.add_host("node1", "cluster")
    # Pinhole: node1 may reach gateway:9000 only.
    net.zone_of("node1").outbound.allow(dst="gateway", port=9000)
    transport = InMemoryTransport(net)
    yield transport
    transport.close_all()


class EchoServer:
    """Answers every frame with ``{"echo": frame}``, on one serving loop."""

    def __init__(self, transport, host):
        self.listener = transport.listen(host)
        self.endpoint = self.listener.endpoint
        self._loop = self.listener.serve_loop(
            on_channel=lambda chan: chan,
            on_message=lambda chan, msg: chan.send({"echo": msg}),
            on_closed=lambda chan: None,
            name=f"echo-{host}",
        )

    def close(self):
        self._loop.stop()
        self.listener.close()


def start_echo_server(transport, host):
    return EchoServer(transport, host)


class TestProxyTunnel:
    def test_direct_connect_blocked(self, firewalled):
        listener = start_echo_server(firewalled, "submit")
        with pytest.raises(FirewallBlockedError):
            firewalled.connect("node1", listener.endpoint)
        listener.close()

    def test_tunnel_reaches_front_end(self, firewalled):
        listener = start_echo_server(firewalled, "submit")
        proxy = ProxyServer(firewalled, "gateway", 9000)
        chan = connect_via_proxy(
            firewalled, "node1", proxy.endpoint, listener.endpoint
        )
        chan.send({"hello": "from-the-inside"})
        assert chan.recv(timeout=5.0) == {"echo": {"hello": "from-the-inside"}}
        chan.close()
        proxy.stop()
        listener.close()

    def test_tunnel_bidirectional_many_messages(self, firewalled):
        listener = start_echo_server(firewalled, "submit")
        proxy = ProxyServer(firewalled, "gateway", 9000)
        chan = connect_via_proxy(firewalled, "node1", proxy.endpoint, listener.endpoint)
        for i in range(25):
            chan.send({"i": i})
            assert chan.recv(timeout=5.0) == {"echo": {"i": i}}
        chan.close()
        proxy.stop()
        listener.close()

    def test_proxy_error_when_target_down(self, firewalled):
        proxy = ProxyServer(firewalled, "gateway", 9000)
        with pytest.raises(ProxyError, match="could not reach"):
            connect_via_proxy(
                firewalled, "node1", proxy.endpoint, Endpoint("submit", 1234)
            )
        proxy.stop()

    def test_proxy_respects_its_own_firewall(self):
        # A proxy on a host that itself cannot reach the target must fail.
        net = Network()
        net.add_private_zone("isolated")
        net.add_zone("campus")
        net.add_host("submit", "campus")
        net.add_host("lonely", "isolated")
        net.add_host("client", "campus")
        transport = InMemoryTransport(net)
        listener = transport.listen("lonely", 7000)
        proxy = ProxyServer(transport, "submit", 9000)
        with pytest.raises(ProxyError):
            connect_via_proxy(transport, "client", proxy.endpoint, listener.endpoint)
        proxy.stop()
        listener.close()

    def test_tunnel_count_tracks_lifecycle(self, firewalled):
        listener = start_echo_server(firewalled, "submit")
        proxy = ProxyServer(firewalled, "gateway", 9000)
        assert proxy.tunnel_count == 0
        chan = connect_via_proxy(firewalled, "node1", proxy.endpoint, listener.endpoint)
        chan.send({"x": 1})
        chan.recv(timeout=5.0)
        assert proxy.tunnel_count == 1
        chan.close()
        # Pumps tear the tunnel down asynchronously.
        import time

        deadline = time.monotonic() + 5.0
        while proxy.tunnel_count and time.monotonic() < deadline:
            time.sleep(0.01)
        assert proxy.tunnel_count == 0
        proxy.stop()
        listener.close()


class TestConnectMaybeProxied:
    def test_uses_direct_when_allowed(self, firewalled):
        # submit -> submit is intra-zone; no proxy needed even though given.
        listener = start_echo_server(firewalled, "submit")
        proxy = ProxyServer(firewalled, "gateway", 9000)
        chan = connect_maybe_proxied(
            firewalled, "gateway", listener.endpoint, proxy.endpoint
        )
        chan.send({"q": 1})
        assert chan.recv(timeout=5.0) == {"echo": {"q": 1}}
        chan.close()
        proxy.stop()
        listener.close()

    def test_falls_back_to_proxy(self, firewalled):
        listener = start_echo_server(firewalled, "submit")
        proxy = ProxyServer(firewalled, "gateway", 9000)
        chan = connect_maybe_proxied(
            firewalled, "node1", listener.endpoint, proxy.endpoint
        )
        chan.send({"q": 2})
        assert chan.recv(timeout=5.0) == {"echo": {"q": 2}}
        chan.close()
        proxy.stop()
        listener.close()

    def test_no_proxy_reraises(self, firewalled):
        listener = start_echo_server(firewalled, "submit")
        with pytest.raises(FirewallBlockedError):
            connect_maybe_proxied(firewalled, "node1", listener.endpoint, None)
        listener.close()


class TestProxyThreads:
    def test_a_tunnel_starts_one_thread(self, firewalled, monkeypatch):
        """The handshake and client->target forwarding run on the
        proxy's serving loop; only target->client needs a pump."""
        import threading

        listener = start_echo_server(firewalled, "submit")
        proxy = ProxyServer(firewalled, "gateway", 9000)
        started = []
        start = threading.Thread.start

        def tapped(thread):
            started.append(thread.name)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", tapped)
        chan = connect_via_proxy(firewalled, "node1", proxy.endpoint, listener.endpoint)
        for i in range(5):
            chan.send({"i": i})
            assert chan.recv(timeout=5.0) == {"echo": {"i": i}}
        assert len(started) == 1, started
        chan.close()
        proxy.stop()
        listener.close()
