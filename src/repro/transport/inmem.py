"""In-memory transport over the simulated network.

Channels are queue pairs; ``connect`` consults the
:class:`~repro.net.topology.Network` firewall rules.  A message crosses
as the copy the JSON frame codec's round trip would give
(:func:`~repro.transport.framing.copy_frame`), which refuses what is not
wire-serializable; nothing crosses as bytes (the ``codec`` is ``None``).

Under ``serve_loop`` the listener-side ends are push-mode: their inbound
traffic lands on one shared ready-queue drained by one dispatcher
thread, so N idle connections cost no threads.  A dialled end in
``deliver`` mode costs none either: the peer's ``send`` runs its sink
on the sending thread, so a server's reply opens its caller's latch
without a hop through a queue and a reader.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable

from repro import obs
from repro.errors import (
    ChannelClosedError,
    ConnectError,
    GetTimeoutError,
    ProtocolError,
)
from repro.net.address import Endpoint
from repro.net.topology import Network
from repro.transport import framing
from repro.transport.base import Channel, Listener, Message, Transport
from repro.util.sync import WaitableQueue, tracked_lock
from repro.util.threads import spawn

# ready-queue event kinds
_ACCEPT, _FRAME, _CLOSE = range(3)


class _InMemChannel(Channel):
    """One end of a queue-pair channel.

    What the peer of a served end sends goes to the dispatcher's
    ready-queue instead of ``_rx``; ``recv`` is unsupported there.  What
    the peer of a delivering end sends goes to its sink, on the peer's
    thread.
    """

    def __init__(self, local_host: str, remote_host: str):
        self._local = local_host
        self._remote = remote_host
        self._rx: WaitableQueue[Message] = WaitableQueue()
        self._peer: _InMemChannel | None = None  # set by _pair()
        # tdp-guard: _served_by -> volatile
        # (set under _lock when served and cleared under it once the
        # dispatcher has retired the closed end; the send path reads it
        # under _lock, recv and close tolerate either value — see close())
        self._served_by: _InMemDispatcher | None = None
        # tdp-guard: _sink -> transport.inmem._InMemChannel._lock
        # ((on_message, on_closed) once ``deliver``ed, until closed; set,
        # run and taken out under _lock, which orders it against frames)
        self._sink: tuple[Callable[[Message], None], Callable[[], None]] | None = None
        self._closed = False
        self._lock = threading.Lock()

    @staticmethod
    def pair(host_a: str, host_b: str) -> tuple["_InMemChannel", "_InMemChannel"]:
        """Create a connected channel pair (a on host_a, b on host_b)."""
        a = _InMemChannel(host_a, host_b)
        b = _InMemChannel(host_b, host_a)
        a._peer = b
        b._peer = a
        return a, b

    def send(self, message: Message) -> None:
        self.offer(message, None)

    def offer(self, message: Message, maxsize: int | None) -> bool:
        """``send`` unless the peer has ``maxsize`` frames unread."""
        # Copy as the wire would, which enforces serializability.
        observed = obs.enabled()
        message, size = framing.copy_frame(message, observed)
        if observed:
            reg = obs.registry()
            reg.counter("transport.inmem.frames").increment()
            reg.counter("transport.inmem.bytes").increment(size)
        with self._lock:
            if self._closed:
                raise ChannelClosedError(f"send on closed channel {self._local}->{self._remote}")
        peer = self._peer
        assert peer is not None
        try:
            # Orders this frame against peer._serve, peer.deliver and
            # every other frame sent to the peer.
            with peer._lock:
                if peer._sink is not None:
                    peer._sink[0](message)
                    return True
                if peer._served_by is None:
                    return peer._rx.offer(message, maxsize)
                peer._served_by.post(_FRAME, peer, message)
                return True
        except ChannelClosedError:
            raise ChannelClosedError(
                f"peer {self._remote} closed channel from {self._local}"
            ) from None

    def _serve(self, dispatcher: "_InMemDispatcher") -> None:
        """Go push-mode; hand over what the peer did while backlogged."""
        with self._lock:
            self._served_by = dispatcher
            dispatcher.post(_ACCEPT, self)
            for message in self._rx.drain():
                dispatcher.post(_FRAME, self, message)
            if self._closed:
                dispatcher.post(_CLOSE, self)

    def deliver(self, on_message, on_closed, *, name: str) -> None:
        """Run the sinks on the sender's thread (``name`` names no
        thread here): the peer's ``send`` calls ``on_message`` under this
        end's ``_lock``, after the frames that were already queued, and
        ``close`` from either side calls ``on_closed``."""
        with self._lock:
            for message in self._rx.drain():
                on_message(message)
            if not self._closed:
                self._sink = (on_message, on_closed)
                return
        on_closed()

    def recv(self, timeout: float | None = None) -> Message:
        if self._served_by is not None:
            raise ProtocolError("served channel delivers via on_message")
        try:
            return self._rx.get(timeout=timeout)
        except GetTimeoutError:
            raise
        except ChannelClosedError:
            raise ChannelClosedError(
                f"channel {self._local}<-{self._remote} closed"
            ) from None

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            peer = self._peer
            sinks = [self._sink]
            self._sink = None
        # Close our receive side immediately and the peer's receive side so
        # its blocked readers wake after draining in-flight messages.
        self._rx.close()
        if peer is not None:
            peer._rx.close()
            with peer._lock:
                peer._closed = True
                sinks.append(peer._sink)
                peer._sink = None
        # Taken out under the lock that orders the frames: exactly once,
        # after the last one.
        for sink in sinks:
            if sink is not None:
                sink[1]()
        # Lock-free reads: _serve posts the close itself when it adopts
        # an end that is already closed, so one of the two always posts.
        for end in (self, peer):
            served_by = end._served_by if end is not None else None
            if served_by is not None:
                served_by.post(_CLOSE, end)

    def _retire(self) -> None:
        """Let go of the dispatcher once it has seen this end close: a
        channel kept after its connection (say, by a finished job's
        starter) must not pin a per-job dispatcher, its queue and its
        thread object."""
        with self._lock:
            self._served_by = None

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def codec(self) -> None:
        """None: nothing is encoded.  A message arrives as JSON's round
        trip would leave it, and no pre-encoded frame is offered."""
        return None

    @property
    def local_host(self) -> str:
        return self._local

    @property
    def remote_host(self) -> str:
        return self._remote


class _InMemDispatcher:
    """The ``serve_loop`` handle: one thread over one shared ready-queue
    of accept, frame and close events, so per-connection frame order is
    queue order.  The queue has that one reader, so it is a
    ``queue.SimpleQueue``: a hand-off is one C-level ``put``/``get``.
    ``stop()`` posts a sentinel: what is already posted drains, then
    every live channel is closed with its ``on_closed``.
    """

    def __init__(self, on_channel, on_message, on_closed, name: str):
        self._ready: queue.SimpleQueue[tuple | None] = queue.SimpleQueue()
        self._lock = tracked_lock("transport.inmem._InMemDispatcher._lock")
        self._stopped = False
        self._thread = spawn(
            self._run, args=(on_channel, on_message, on_closed), name=name
        )

    def post(self, kind: int, channel: _InMemChannel, message: Message | None = None) -> None:
        with self._lock:  # orders every post against the sentinel
            if not self._stopped:
                self._ready.put((kind, channel, message))
            elif kind != _CLOSE:  # a close after stop(): teardown covers it
                raise ChannelClosedError("post on stopped dispatcher")

    def stop(self) -> None:
        with self._lock:
            if not self._stopped:
                self._stopped = True
                self._ready.put(None)
        if threading.get_ident() != self._thread.ident:
            self._thread.join(timeout=5.0)

    def _run(self, on_channel, on_message, on_closed) -> None:
        live: dict[_InMemChannel, Any] = {}  # accepted channel -> token
        try:
            while (event := self._ready.get()) is not None:  # None: stop()
                kind, channel, message = event
                if kind == _ACCEPT:
                    token = on_channel(channel)
                    if token is None:
                        channel.close()
                    else:
                        live[channel] = token
                elif kind == _CLOSE:
                    channel._retire()
                    if channel in live:
                        on_closed(live.pop(channel))
                elif channel in live:  # else refused, or already closed
                    on_message(live[channel], message)
                # Let go before parking: the loop must not pin the last
                # connection it served once that one has closed.
                channel = message = token = event = None
        finally:
            for channel, token in live.items():
                channel.close()
                channel._retire()
                on_closed(token)


class _InMemListener(Listener):
    def __init__(self, transport: "InMemoryTransport", endpoint: Endpoint):
        self._transport = transport
        self._endpoint = endpoint
        self._backlog: WaitableQueue[_InMemChannel] = WaitableQueue()
        self._dispatcher: _InMemDispatcher | None = None
        self._lock = tracked_lock("transport.inmem._InMemListener._lock")
        self._closed = False

    @property
    def endpoint(self) -> Endpoint:
        return self._endpoint

    # Only benchmarks/tdpbench/layers.py calls this (inmem.hop_us); not the Listener contract.
    def accept(self, timeout: float | None = None) -> Channel:
        try:
            return self._backlog.get(timeout=timeout)
        except ChannelClosedError:
            raise ChannelClosedError(f"listener {self._endpoint} closed") from None

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._transport._unbind(self._endpoint)
        self._backlog.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def serve_loop(self, **handlers) -> _InMemDispatcher:
        dispatcher = _InMemDispatcher(**handlers)
        with self._lock:
            self._dispatcher = dispatcher
            early = self._backlog.drain()
        for channel in early:  # connected between listen() and now
            channel._serve(dispatcher)
        return dispatcher

    def _enqueue(self, channel: _InMemChannel) -> None:
        with self._lock:
            dispatcher = self._dispatcher
            if dispatcher is None:
                self._backlog.put(channel)
                return
        channel._serve(dispatcher)


class InMemoryTransport(Transport):
    """Transport over a simulated :class:`Network`.

    Port numbers are per-host; ``listen(host, 0)`` allocates ephemeral
    ports starting at 30000 (mirroring an OS ephemeral range, and keeping
    well-known service ports free for explicit binds).
    """

    EPHEMERAL_BASE = 30000

    def __init__(self, network: Network):
        self._network = network
        self._listeners: dict[tuple[str, int], _InMemListener] = {}
        self._next_port: dict[str, int] = {}
        self._lock = threading.Lock()

    @property
    def network(self) -> Network:
        return self._network

    def listen(self, host: str, port: int = 0) -> Listener:
        # Validates the host exists in the topology.
        self._network.zone_of(host)
        with self._lock:
            if port == 0:
                port = self._next_port.get(host, self.EPHEMERAL_BASE)
                while (host, port) in self._listeners:
                    port += 1
                self._next_port[host] = port + 1
            key = (host, port)
            if key in self._listeners:
                raise ConnectError(f"address in use: {host}:{port}")
            listener = _InMemListener(self, Endpoint(host, port))
            self._listeners[key] = listener
            return listener

    def connect(self, src_host: str, endpoint: Endpoint, timeout: float | None = None) -> Channel:
        self._network.check(src_host, endpoint.host, endpoint.port)
        with self._lock:
            listener = self._listeners.get((endpoint.host, endpoint.port))
        if listener is None or listener.closed:
            raise ConnectError(f"connection refused: nothing listening at {endpoint}")
        client_end, server_end = _InMemChannel.pair(src_host, endpoint.host)
        try:
            listener._enqueue(server_end)
        except ChannelClosedError:
            raise ConnectError(f"connection refused: listener at {endpoint} closed") from None
        return client_end

    def _unbind(self, endpoint: Endpoint) -> None:
        with self._lock:
            self._listeners.pop((endpoint.host, endpoint.port), None)

    def open_listeners(self) -> list[Endpoint]:
        """Endpoints currently bound (diagnostics/tests)."""
        with self._lock:
            return sorted(l.endpoint for l in self._listeners.values())

    def close_all(self) -> None:
        """Close every listener (scenario teardown)."""
        with self._lock:
            listeners = list(self._listeners.values())
        for l in listeners:
            l.close()


def loopback_transport(hostname: str = "localhost") -> InMemoryTransport:
    """Single-host in-memory transport (unit-test convenience)."""
    from repro.net.topology import flat_network

    return InMemoryTransport(flat_network([hostname]))
