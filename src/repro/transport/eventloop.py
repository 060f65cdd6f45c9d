"""Selectors-based server event loop: many connections, one thread.

This loop multiplexes everything a server socket does onto a single
thread, so an idle subscriber costs a file descriptor, not a thread:

* **accept** — the listening socket is non-blocking; a readiness event
  drains the whole accept backlog.
* **handshake** — each accepted connection gets a per-connection hello
  deadline (so one connected-but-silent client cannot stall admission
  for anyone else — the head-of-line block the old inline handshake
  had) and a bounded preamble buffer.  The hello names the peer's
  logical host and negotiates the frame body codec; frames coalesced
  behind it in one read are served after it, not dropped.
* **read** — ready sockets feed :class:`~repro.transport.framing.FrameReader`
  and every decoded frame is handed to the ``on_message`` callback on
  the loop thread.
* **write backpressure** — sends from any thread append encoded frames
  to a per-connection bounded buffer; the loop drains it as the socket
  accepts bytes, registering write interest only while a partial frame
  is stuck.  ``offer`` reports overflow to the caller, which applies
  its slow-subscriber policy (the loop never blocks and never drops
  silently).  An off-loop send wakes the loop only when it is parked:
  the first frame of a burst writes the waker byte, and the rest find
  the loop bound to re-check its dirty set before it parks again.  The
  loop never parks in ``select`` with a frame queued.

The handler contract (``on_channel`` / ``on_message`` / ``on_closed``) is
:meth:`repro.transport.base.Listener.serve_loop`'s; here a channel is
announced once its hello completed, and protocol garbage or the overflow
policy close a connection like a peer EOF does.
"""

from __future__ import annotations

import collections
import selectors
import socket
import threading
import time
from typing import Any, Callable

from repro import obs
from repro.errors import ChannelClosedError, ProtocolError
from repro.transport import framing
from repro.transport.base import Channel, Message
from repro.util.log import get_logger
from repro.util.sync import tracked_lock
from repro.util.threads import spawn

_log = get_logger("transport.eventloop")

#: How long an accepted connection gets to complete its hello.
HELLO_TIMEOUT = 5.0

#: Preamble cap: a peer that buffers this much without completing a
#: hello frame is garbage, not slow (a real hello is tens of bytes).
HELLO_MAX_BYTES = 64 * 1024

_RECV_CHUNK = 262144

#: cap on bytes joined into one coalesced send() — bounds the copy and
#: keeps a single fat connection from monopolizing the loop
_FLUSH_BATCH = 131072

# selector-key markers for the two non-connection fds
_ACCEPT = object()
_WAKER = object()


class _Conn:
    """Per-connection state; mutated on the loop thread.

    ``out``/``out_frames``/``closing`` are also touched by off-loop
    senders and close calls — those fields are only read or written
    under the loop's ``_lock`` (except volatile racy reads noted
    inline).
    """

    def __init__(self, sock: socket.socket, deadline: float):
        self.sock = sock
        self.fd = sock.fileno()
        self.reader = framing.FrameReader()
        # tdp-guard: peer -> volatile
        # (written once during the hello on the loop thread; off-loop
        # readers — remote_host, send-error messages — see either the
        # placeholder or the final name, both safe)
        self.peer = "?"
        # tdp-guard: codec -> volatile
        # (written once during the hello on the loop thread before
        # on_channel publishes the connection; off-loop senders read it
        # after that happens-before edge)
        self.codec: str | None = None
        self.established = False
        self.deadline = deadline
        # tdp-guard: token -> confined:transport.eventloop.ServerSocketLoop._run
        # (set at hello completion, cleared at teardown; _drain_closes
        # only runs teardown on the loop thread — off-loop closers just
        # enqueue and wake)
        self.token: Any = None
        # outbound byte frames (bytes or memoryview tails); guarded by
        # the loop lock.  ``None`` when empty so 10k idle subscribers
        # keep no queue allocated — a deque costs ~0.7 KB each.
        self.out: collections.deque | None = None
        self.out_frames = 0
        # tdp-guard: closing -> volatile
        # (monotonic latch: set under the loop lock, read lock-free by
        # the loop thread between callbacks by design)
        self.closing = False
        # tdp-guard: want_write -> confined:transport.eventloop.ServerSocketLoop._run
        # (selector interest is loop-thread bookkeeping only)
        self.want_write = False


class LoopChannel(Channel):
    """Push-mode channel for one loop-managed connection.

    Inbound frames arrive via the loop's ``on_message`` callback, so
    ``recv`` is unsupported.  ``send``/``offer`` enqueue onto the loop's
    per-connection outbound buffer from any thread.
    """

    def __init__(self, loop: "ServerSocketLoop", conn: _Conn):
        self._loop = loop
        self._conn = conn

    def send(self, message: Message) -> None:
        self._loop._enqueue(self._conn, message, None)

    def offer(self, message: Message | bytes, maxsize: int | None) -> bool:
        """Enqueue unless the outbound buffer holds ``maxsize`` frames.

        Mirrors ``WaitableQueue.offer`` so the server's slow-subscriber
        policy is transport-agnostic: ``False`` means the peer is not
        draining and the caller decides its fate.
        """
        return self._loop._enqueue(self._conn, message, maxsize)

    @property
    def codec(self) -> str | None:
        """The body codec the hello negotiated."""
        return self._conn.codec

    def recv(self, timeout: float | None = None) -> Message:
        raise ProtocolError("loop-managed channel delivers via on_message")

    def close(self) -> None:
        self._loop._close_conn(self._conn)

    @property
    def closed(self) -> bool:
        return self._conn.closing

    @property
    def local_host(self) -> str:
        return self._loop.local_host

    @property
    def remote_host(self) -> str:
        return self._conn.peer


class ServerSocketLoop:
    """One thread serving a listening socket and all its connections."""

    def __init__(
        self,
        sock: socket.socket,
        local_host: str,
        *,
        on_channel: Callable[[Channel], Any],
        on_message: Callable[[Any, Message], None],
        on_closed: Callable[[Any], None],
        name: str = "tdp-eventloop",
        hello_timeout: float = HELLO_TIMEOUT,
    ):
        self._sock = sock
        self._local = local_host
        self._on_channel = on_channel
        self._on_message = on_message
        self._on_closed = on_closed
        self._hello_timeout = hello_timeout
        self._lock = tracked_lock("transport.eventloop.ServerSocketLoop._lock")
        self._sel = selectors.DefaultSelector()
        # loop-thread-only state
        self._conns: dict[int, _Conn] = {}
        self._handshaking: set[_Conn] = set()
        # cross-thread state (guarded by _lock)
        self._pending_close: collections.deque[_Conn] = collections.deque()
        self._dirty: set[_Conn] = set()
        #: the loop will look at ``_dirty`` again before it parks: set by
        #: the off-loop sender that writes the waker byte, cleared only
        #: in the hold that finds ``_dirty`` empty right before a select
        # tdp-guard: _wake_pending -> transport.eventloop.ServerSocketLoop._lock
        self._wake_pending = False
        # tdp-guard: _stopped -> volatile
        # (monotonic stop latch: set under _lock, read lock-free by the
        # loop and by senders by design)
        self._stopped = False
        self._waker_r, self._waker_w = socket.socketpair()
        self._waker_r.setblocking(False)
        self._waker_w.setblocking(False)
        sock.setblocking(False)
        self._sel.register(sock, selectors.EVENT_READ, _ACCEPT)
        self._sel.register(self._waker_r, selectors.EVENT_READ, _WAKER)
        self._thread = spawn(self._run, name=name)

    @property
    def local_host(self) -> str:
        return self._local

    def stop(self) -> None:
        """Stop the loop, close every connection, join the thread."""
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        self._wake()
        if threading.get_ident() != self._thread.ident:
            self._thread.join(timeout=5.0)

    # -- outbound path (any thread) ------------------------------------------

    def _enqueue(self, st: _Conn, message: Message | bytes, maxsize: int | None) -> bool:
        payload = (
            message if type(message) is bytes
            else framing.encode_frame(message, codec=st.codec)
        )
        if obs.enabled():
            reg = obs.registry()
            reg.counter("transport.tcp.frames").increment()
            reg.counter("transport.tcp.bytes").increment(len(payload))
        on_loop = threading.get_ident() == self._thread.ident
        with self._lock:
            if st.closing or self._stopped:
                raise ChannelClosedError(
                    f"send on closed channel {self._local}->{st.peer}"
                )
            if maxsize is not None and st.out_frames >= maxsize:
                return False
            if st.out is None:
                st.out = collections.deque()
            st.out.append(payload)
            st.out_frames += 1
            # Defer the actual write in both cases: on the loop thread
            # the batch-end _flush_dirty coalesces every frame produced
            # while dispatching one readable burst into one send().
            self._dirty.add(st)
            # Off the loop, wake it unless it is already bound to
            # re-check _dirty, which now holds this connection.
            wake = not on_loop and not self._wake_pending
            if wake:
                self._wake_pending = True
        if wake:
            self._wake()
        return True

    def _close_conn(self, st: _Conn) -> None:
        with self._lock:
            if st.closing:
                return
            st.closing = True
            self._pending_close.append(st)
        if threading.get_ident() == self._thread.ident:
            self._drain_closes()
        else:
            self._wake()

    def _wake(self) -> None:
        try:
            self._waker_w.send(b"\0")
        except OSError:
            pass  # waker full or closed: the loop is waking anyway

    # -- loop thread ---------------------------------------------------------

    def _run(self) -> None:
        try:
            while not self._stopped:
                events = self._sel.select(self._poll_timeout())
                if self._stopped:
                    break
                for key, mask in events:
                    data = key.data
                    if data is _ACCEPT:
                        self._drain_backlog()
                    elif data is _WAKER:
                        self._drain_waker()
                    else:
                        if mask & selectors.EVENT_WRITE and not data.closing:
                            self._flush(data)
                        if mask & selectors.EVENT_READ and not data.closing:
                            self._do_read(data)
                self._expire_hellos()
                self._drain_closes()
                # Last, so frames an on_closed handler sent go out in
                # this pass.
                self._flush_dirty()
        finally:
            self._teardown()

    def _poll_timeout(self) -> float | None:
        with self._lock:
            if self._dirty:
                # Queued during the flush, by a sender that saw a wake
                # pending or on the loop thread (a send error's teardown
                # ran on_closed): nobody will wake us, so do not park.
                return 0.0
            # Parking with nothing queued: the next sender wakes us.
            self._wake_pending = False
        if not self._handshaking:
            return None
        soonest = min(st.deadline for st in self._handshaking)
        return max(0.0, soonest - time.monotonic())

    def _drain_backlog(self) -> None:
        while True:
            try:
                conn, _addr = self._sock.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                # Listener closed under us; stop() follows shortly.
                return
            conn.setblocking(False)
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            st = _Conn(conn, time.monotonic() + self._hello_timeout)
            with self._lock:
                self._conns[st.fd] = st
            self._handshaking.add(st)
            self._sel.register(conn, selectors.EVENT_READ, st)

    def _do_read(self, st: _Conn) -> None:
        try:
            data = st.sock.recv(_RECV_CHUNK)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(st)
            return
        if not data:
            self._close_conn(st)
            return
        try:
            messages = st.reader.feed(data)
        except ProtocolError as e:
            _log.warning("%s: dropping %s: %s", self._local, st.peer, e)
            self._close_conn(st)
            return
        if not st.established:
            messages = self._complete_hello(st, messages)
            if messages is None:
                return
        token = st.token
        for message in messages:
            if st.closing:
                break
            self._on_message(token, message)

    def _complete_hello(self, st: _Conn, messages: list) -> list | None:
        """Process the hello; returns the coalesced trailing frames."""
        if not messages:
            if st.reader.pending_bytes > HELLO_MAX_BYTES:
                _log.warning(
                    "%s: dropping peer: %d preamble bytes without a hello",
                    self._local, st.reader.pending_bytes,
                )
                self._close_conn(st)
                return None
            return None
        hello = messages[0]
        if "hello" not in hello:
            _log.warning("%s: dropping peer: first frame was not a hello", self._local)
            self._close_conn(st)
            return None
        st.peer = str(hello["hello"])
        st.codec = framing.negotiate_codec(hello.get("codecs"))
        st.established = True
        self._handshaking.discard(st)
        token = self._on_channel(LoopChannel(self, st))
        if token is None:
            self._close_conn(st)
            return None
        st.token = token
        if "codecs" in hello:
            # Ack before any reply so the peer can adopt the codec for
            # everything after its hello.
            try:
                self._enqueue(st, {"hello_ack": self._local, "codec": st.codec}, None)
            except ChannelClosedError:
                return None
        return messages[1:]

    def _flush(self, st: _Conn) -> None:
        """Drain the outbound buffer until empty or the socket stalls.

        Queued frames are joined up to ``_FLUSH_BATCH`` bytes per
        ``send()`` — under a pipelining client one syscall carries a
        whole burst of replies instead of one each.
        """
        while True:
            with self._lock:
                if not st.out:
                    break
                bufs = []
                size = 0
                for frame in st.out:
                    bufs.append(frame)
                    size += len(frame)
                    if size >= _FLUSH_BATCH:
                        break
            payload = bufs[0] if len(bufs) == 1 else b"".join(bufs)
            try:
                sent = st.sock.send(payload)
            except (BlockingIOError, InterruptedError):
                self._set_write_interest(st, True)
                return
            except OSError:
                self._close_conn(st)
                return
            with self._lock:
                remaining = sent
                while remaining and st.out:
                    head = st.out[0]
                    if remaining >= len(head):
                        remaining -= len(head)
                        st.out.popleft()
                        st.out_frames -= 1
                    else:
                        st.out[0] = memoryview(head)[remaining:]
                        remaining = 0
                if not st.out:
                    st.out = None
            if sent < size:
                self._set_write_interest(st, True)
                return
        self._set_write_interest(st, False)

    def _set_write_interest(self, st: _Conn, on: bool) -> None:
        if st.closing or st.want_write == on:
            return
        st.want_write = on
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if on else 0)
        try:
            self._sel.modify(st.sock, events, st)
        except (KeyError, ValueError, OSError):
            pass

    def _flush_dirty(self) -> None:
        with self._lock:
            if not self._dirty:
                return
            dirty = list(self._dirty)
            self._dirty.clear()
        for st in dirty:
            if not st.closing:
                self._flush(st)

    def _expire_hellos(self) -> None:
        if not self._handshaking:
            return
        now = time.monotonic()
        for st in list(self._handshaking):
            if now >= st.deadline:
                _log.info("%s: dropping peer: no hello within %.1fs",
                          self._local, self._hello_timeout)
                self._close_conn(st)

    def _drain_waker(self) -> None:
        while True:
            try:
                if not self._waker_r.recv(4096):
                    return
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return

    def _drain_closes(self) -> None:
        while True:
            with self._lock:
                st = self._pending_close.popleft() if self._pending_close else None
            if st is None:
                return
            self._teardown_conn(st)

    def _teardown_conn(self, st: _Conn) -> None:
        with self._lock:
            self._conns.pop(st.fd, None)
        self._handshaking.discard(st)
        try:
            self._sel.unregister(st.sock)
        except (KeyError, ValueError, OSError):
            pass
        self._final_flush(st)
        try:
            st.sock.close()
        except OSError:
            pass
        if st.token is not None:
            token, st.token = st.token, None
            self._on_closed(token)

    def _final_flush(self, st: _Conn) -> None:
        # Best-effort graceful drain: whatever replies were already
        # queued go out if the socket will take them without blocking.
        while True:
            with self._lock:
                buf = st.out.popleft() if st.out else None  # None-safe: falsy
            if buf is None:
                return
            try:
                sent = st.sock.send(buf)
            except OSError:
                return
            if sent < len(buf):
                return

    def _teardown(self) -> None:
        for st in list(self._conns.values()):
            with self._lock:
                st.closing = True
            self._teardown_conn(st)
        try:
            self._sel.unregister(self._sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            self._sel.unregister(self._waker_r)
        except (KeyError, ValueError, OSError):
            pass
        self._sel.close()
        self._waker_r.close()
        self._waker_w.close()
