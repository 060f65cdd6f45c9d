"""Real TCP transport (127.0.0.1).

Demonstrates that the protocol stack is not simulation-bound: the same
attribute-space server and TDP client code run over genuine sockets.
Host names are logical labels carried in a small connect preamble (all
sockets physically bind to loopback), so code written against the
simulated network runs unchanged.

The connect hello also negotiates the frame-body codec: the client
advertises ``{"codecs": [...]}``, the server picks the first name it
supports (JSON is the mandatory fallback) and answers with a
``{"hello_ack": ..., "codec": ...}`` frame before any reply.  A peer
that advertises nothing gets no ack and stays on JSON — old clients
keep working unchanged.

Channels here are threadless: ``recv`` reads the socket directly (a
``select`` wait gives queue-identical timeout semantics), so a client
connection costs one file descriptor, not a reader thread.  The server
side — accept, hello, every served connection — is the ``selectors``
loop of :mod:`repro.transport.eventloop`.
"""

from __future__ import annotations

import collections
import select
import socket
import time

from repro import obs
from repro.errors import ChannelClosedError, ConnectError, GetTimeoutError, ProtocolError
from repro.net.address import Endpoint
from repro.transport import framing
from repro.transport.base import Channel, Listener, Message, Transport
from repro.transport.eventloop import ServerSocketLoop
from repro.util.sync import tracked_lock

_BIND_ADDR = "127.0.0.1"


def _set_nodelay(sock: socket.socket) -> None:
    # Nagle batches small frames; every TDP frame is a small
    # request/reply, so delayed-ack interaction would add up to 40ms
    # to the latency percentiles the bench records.
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass


class _TcpChannel(Channel):
    """The dialling end of a connection, read directly (no reader thread).

    ``recv`` pulls from the socket under ``_recv_lock``; timeouts use a
    ``select`` readiness wait so the socket itself stays blocking and a
    concurrent ``sendall`` is never perturbed.  ``close`` (or peer EOF)
    wakes a blocked reader via ``shutdown``.  Decoded-but-undelivered
    frames queue in ``_pending`` and drain before a close is reported,
    preserving the graceful-drain semantics of the old reader thread.
    """

    def __init__(self, sock: socket.socket, local_host: str, remote_host: str):
        self._sock = sock
        self._local = local_host
        self._remote = remote_host
        # Frames decoded from one socket read beyond the one returned
        # (one recv can return several coalesced frames).  ``None`` when
        # empty: an idle connection keeps no queue allocated.
        self._pending: collections.deque[Message] | None = None
        self._frame_reader = framing.FrameReader()
        self._send_lock = tracked_lock("transport.tcp._TcpChannel._send_lock")
        self._recv_lock = tracked_lock("transport.tcp._TcpChannel._recv_lock")
        # tdp-guard: _closed -> volatile
        # (monotonic close latch: writes serialize under _send_lock, the
        # lock-free `closed` property read races with close by design)
        self._closed = False
        # tdp-guard: _send_codec -> volatile
        # (adopted once from the hello_ack on the receive path; a sender
        # racing the adoption just encodes one more JSON frame — the
        # per-frame header flag keeps the peer's decode correct)
        self._send_codec: str | None = None
        self._expect_ack = True

    @property
    def codec(self) -> str:
        """Negotiated body-codec name (JSON until an ack says otherwise)."""
        return self._send_codec if self._send_codec is not None else framing.json_codec()

    def send(self, message: Message) -> None:
        frame = framing.encode_frame(message, codec=self._send_codec)
        if obs.enabled():
            reg = obs.registry()
            reg.counter("transport.tcp.frames").increment()
            reg.counter("transport.tcp.bytes").increment(len(frame))
        with self._send_lock:
            if self._closed:
                raise ChannelClosedError(f"send on closed channel {self._local}->{self._remote}")
            try:
                self._sock.sendall(frame)
            except OSError as e:
                # Latch closed: once one write fails, every later one
                # would too — make them fail fast rather than poke the
                # dead socket again.
                self._closed = True
                raise ChannelClosedError(f"peer {self._remote} gone: {e}") from e

    def send_many(self, messages) -> None:
        """Send a burst of frames with one write.

        Same wire bytes as repeated :meth:`send`, but the frames are
        concatenated into a single ``sendall`` — a pipelining caller
        pays one syscall per burst instead of one per frame.
        """
        frames = [
            framing.encode_frame(m, codec=self._send_codec) for m in messages
        ]
        if not frames:
            return
        payload = frames[0] if len(frames) == 1 else b"".join(frames)
        if obs.enabled():
            reg = obs.registry()
            reg.counter("transport.tcp.frames").increment(len(frames))
            reg.counter("transport.tcp.bytes").increment(len(payload))
        with self._send_lock:
            if self._closed:
                raise ChannelClosedError(f"send on closed channel {self._local}->{self._remote}")
            try:
                self._sock.sendall(payload)
            except OSError as e:
                self._closed = True
                raise ChannelClosedError(f"peer {self._remote} gone: {e}") from e

    def recv(self, timeout: float | None = None) -> Message:
        with self._recv_lock:
            return self._recv_locked(timeout)

    def _recv_locked(self, timeout: float | None) -> Message:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            pending = self._pending
            if pending:
                message = pending.popleft()
                if not pending:
                    self._pending = None
                if self._expect_ack:
                    # The first frame after our hello may be the codec
                    # ack; it belongs to the transport, not the caller.
                    self._expect_ack = False
                    if "hello_ack" in message:
                        self._adopt_codec(message.get("codec"))
                        continue
                return message
            if self._closed:
                raise ChannelClosedError(
                    f"channel {self._local}<-{self._remote} closed"
                )
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not _readable(self._sock, remaining):
                    raise GetTimeoutError(f"recv timed out after {timeout}s")
            try:
                data = self._sock.recv(65536)
            except OSError:
                data = b""
            if not data:
                # EOF or error: latch closed, then loop back so any
                # frames decoded from earlier chunks still deliver.
                self._latch_closed()
                continue
            try:
                frames = self._frame_reader.feed(data)
            except ProtocolError:
                self._latch_closed()
                raise
            if not frames:
                continue
            if len(frames) == 1 and not self._expect_ack:
                return frames[0]
            self._pending = collections.deque(frames)

    def _adopt_codec(self, codec: object) -> None:
        if isinstance(codec, str) and codec in framing.supported_codecs():
            self._send_codec = codec

    def _latch_closed(self) -> None:
        with self._send_lock:
            self._closed = True

    def close(self) -> None:
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
        # Shutdown wakes a reader blocked in recv/select before the fd
        # is released.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def local_host(self) -> str:
        return self._local

    @property
    def remote_host(self) -> str:
        return self._remote


def _readable(sock: socket.socket, timeout: float) -> bool:
    try:
        ready, _, _ = select.select([sock], [], [], timeout)
    except (OSError, ValueError):
        return True  # let recv surface the real error
    return bool(ready)


class _TcpListener(Listener):
    def __init__(self, transport: "TcpTransport", host: str, sock: socket.socket, port: int):
        self._transport = transport
        self._host = host
        self._sock = sock
        self._endpoint = Endpoint(host, port)
        self._closed = False

    @property
    def endpoint(self) -> Endpoint:
        return self._endpoint

    def serve_loop(self, **kwargs) -> ServerSocketLoop:
        """Hand the listening socket to a selectors event loop.

        The returned loop owns accept + per-connection IO on one
        thread; the listener keeps ownership of the socket for
        ``close()``.  Beyond the :meth:`Listener.serve_loop` handlers
        the loop takes a ``hello_timeout`` (tests shorten it).
        """
        return ServerSocketLoop(self._sock, self._host, **kwargs)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._transport._unbind(self._endpoint)
        # Shutdown before close: a loop not yet stopped wakes on it and
        # its accept fails, instead of selecting on an fd number that a
        # new listener may recycle and stealing that one's connections.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed


class TcpTransport(Transport):
    """Transport over real loopback TCP sockets.

    Logical host names map to the single physical loopback interface;
    port allocation is delegated to the OS (``port=0``).  There is no
    firewall — the point of this backend is end-to-end realism of the
    byte protocol, not topology modeling.
    """

    def __init__(self) -> None:
        self._bound: dict[Endpoint, int] = {}  # logical endpoint -> real port
        self._lock = tracked_lock("transport.tcp.TcpTransport._lock")

    def listen(self, host: str, port: int = 0) -> Listener:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((_BIND_ADDR, 0))
        sock.listen(1024)
        real_port = sock.getsockname()[1]
        logical_port = port if port != 0 else real_port
        listener = _TcpListener(self, host, sock, logical_port)
        with self._lock:
            self._bound[Endpoint(host, logical_port)] = real_port
        return listener

    def connect(self, src_host: str, endpoint: Endpoint, timeout: float | None = None) -> Channel:
        with self._lock:
            real_port = self._bound.get(endpoint)
        if real_port is None:
            raise ConnectError(f"connection refused: nothing listening at {endpoint}")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout if timeout is not None else 10.0)
        try:
            sock.connect((_BIND_ADDR, real_port))
        except OSError as e:
            sock.close()
            raise ConnectError(f"connect to {endpoint} failed: {e}") from e
        sock.settimeout(None)
        _set_nodelay(sock)
        channel = _TcpChannel(sock, src_host, endpoint.host)
        channel.send({"hello": src_host, "codecs": list(framing.supported_codecs())})
        return channel

    def _unbind(self, endpoint: Endpoint) -> None:
        with self._lock:
            self._bound.pop(endpoint, None)
