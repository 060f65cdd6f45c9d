"""Proxy tunnel: the RM-provided path across a private network.

Paper Section 2.4: "Process managers, such as Condor and Globus, provide
proxy mechanisms to forward their connections in and out of a private
network.  TDP provides a standard interface to these mechanisms."

The :class:`ProxyServer` runs on a gateway host that the firewall lets
through (in the Condor pilot, the starter's host can reach the submit
machine).  A client inside the private zone connects to the proxy and
sends a ``proxy_connect`` preamble naming the real target; the proxy
dials the target *from its own host* and then forwards frames both ways.
:func:`connect_via_proxy` wraps this handshake so callers get back an
ordinary :class:`~repro.transport.base.Channel`.
"""

from __future__ import annotations

import threading

from repro import obs
from repro.errors import ChannelClosedError, ConnectError, ProxyError, TdpError
from repro.net.address import Endpoint, parse_endpoint
from repro.transport.base import Channel, Listener, Message, Transport
from repro.util.ids import fresh_token
from repro.util.log import get_logger
from repro.util.threads import spawn

_log = get_logger("transport.proxy")


class _Tunnel:
    """One client's tunnel: its served inbound channel, and the outbound
    one the proxy dialled once the ``proxy_connect`` preamble named it."""

    def __init__(self, inbound: Channel):
        self.inbound = inbound
        # tdp-guard: outbound -> volatile
        # (written once on the serving thread before the pump that reads
        # it is started; everything else reads it on the serving thread)
        self.outbound: Channel | None = None
        self.tunnel_id = fresh_token("tunnel")


class ProxyServer:
    """Frame-forwarding proxy bound on a gateway host.

    Thread model: one serving loop for every client — the preamble, the
    dial and client→target forwarding run on it — plus one target→client
    pump per tunnel, because a dialled channel has no push mode.
    ``stop()`` stops the loop, which closes every tunnel.
    """

    def __init__(self, transport: Transport, host: str, port: int = 0):
        self._transport = transport
        self._host = host
        self._listener: Listener = transport.listen(host, port)
        self._tunnels: dict[str, _Tunnel] = {}
        self._lock = threading.Lock()
        self._loop = self._listener.serve_loop(
            on_channel=_Tunnel,
            on_message=self._on_message,
            on_closed=self._on_closed,
            name=f"proxy-{host}",
        )

    @property
    def endpoint(self) -> Endpoint:
        """Where clients must connect to reach this proxy."""
        return self._listener.endpoint

    @property
    def tunnel_count(self) -> int:
        with self._lock:
            return len(self._tunnels)

    def _on_message(self, tunnel: _Tunnel, message: Message) -> None:
        if tunnel.outbound is None:
            self._open(tunnel, message)
            return
        if obs.enabled():
            obs.registry().counter("transport.proxy.forwarded").increment()
        try:
            tunnel.outbound.send(message)
        except TdpError:
            tunnel.inbound.close()  # the target is gone; on_closed ends the tunnel

    def _open(self, tunnel: _Tunnel, preamble: Message) -> None:
        """Dial the target the preamble names, on the serving thread.

        The dial waits on the target's host, never on a serving thread:
        an in-memory connect only enqueues, and a TCP connect is
        completed by the target's kernel backlog, not by its loop — so
        it cannot deadlock, even dialling this proxy.  Nor does it starve
        the other tunnels: their target→client traffic moves on their
        own pumps, and client→target sends queue behind one bounded dial.
        """
        inbound = tunnel.inbound
        target_s = preamble.get("proxy_connect")
        try:
            if not isinstance(target_s, str):
                raise ProxyError("expected proxy_connect preamble")
            tunnel.outbound = self._transport.connect(self._host, parse_endpoint(target_s))
        except TdpError as e:
            try:
                inbound.send({"proxy_error": str(e)})
            except TdpError:
                pass
            inbound.close()
            return
        with self._lock:
            self._tunnels[tunnel.tunnel_id] = tunnel
        _log.debug("tunnel %s: %s -> %s", tunnel.tunnel_id, inbound.remote_host, target_s)
        try:
            inbound.send({"proxy_ok": True, "tunnel": tunnel.tunnel_id})
        except TdpError:
            return  # the client is gone: on_closed ends the tunnel
        spawn(self._pump, args=(tunnel,), name=f"proxy-pump-{tunnel.tunnel_id}")

    def _pump(self, tunnel: _Tunnel) -> None:
        """Target→client: the one direction the loop cannot serve."""
        assert tunnel.outbound is not None
        try:
            while True:
                message = tunnel.outbound.recv()
                if obs.enabled():
                    obs.registry().counter("transport.proxy.forwarded").increment()
                tunnel.inbound.send(message)
        except TdpError:
            pass
        finally:
            tunnel.outbound.close()
            tunnel.inbound.close()

    def _on_closed(self, tunnel: _Tunnel) -> None:
        with self._lock:
            self._tunnels.pop(tunnel.tunnel_id, None)
        if tunnel.outbound is not None:
            tunnel.outbound.close()  # ends the pump

    def stop(self) -> None:
        self._loop.stop()
        self._listener.close()


def connect_via_proxy(
    transport: Transport,
    src_host: str,
    proxy: Endpoint,
    target: Endpoint,
    timeout: float | None = 10.0,
) -> Channel:
    """Open a channel to ``target`` tunneled through ``proxy``.

    The returned channel behaves exactly like a direct one; the proxy
    handshake is consumed here.  Raises :class:`ProxyError` when the
    proxy cannot reach the target.
    """
    channel = transport.connect(src_host, proxy, timeout=timeout)
    try:
        channel.send({"proxy_connect": str(target)})
        reply = channel.recv(timeout=timeout)
    except ChannelClosedError as e:
        raise ProxyError(f"proxy {proxy} dropped the handshake: {e}") from e
    if not reply.get("proxy_ok"):
        channel.close()
        raise ProxyError(
            f"proxy {proxy} could not reach {target}: {reply.get('proxy_error', 'unknown error')}"
        )
    return channel


def connect_maybe_proxied(
    transport: Transport,
    src_host: str,
    target: Endpoint,
    proxy: Endpoint | None,
    timeout: float | None = 10.0,
) -> Channel:
    """Connect directly when the network allows it, else via the proxy.

    This is the decision rule the paper assigns to TDP: hand the daemon a
    host/port that is either the real address or the RM proxy's, without
    the daemon caring which (Section 2.4).  Here the fallback is dynamic:
    try direct, and on a firewall block use the proxy if one was given.
    """
    try:
        return transport.connect(src_host, target, timeout=timeout)
    except ConnectError:
        if proxy is None:
            raise
        return connect_via_proxy(transport, src_host, proxy, target, timeout=timeout)
