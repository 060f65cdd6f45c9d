"""Transport abstraction: Channel / Listener / Transport.

Messages are JSON-serializable dictionaries.  A channel is reliable and
ordered (TCP-like), and ``close()`` from either side eventually surfaces
as :class:`~repro.errors.ChannelClosedError` at the peer once queued
messages drain — the graceful-drain semantics both the attribute space
server and the proxy forwarder rely on.

Both ends can be push-mode: a listener's ``serve_loop`` and a dialled
channel's ``deliver`` hand each frame to a *sink*.  Where the transport
can, a sink runs on the sender's thread (in memory, the peer's ``send``
calls it), so the sink rule holds for both: **a sink never blocks and
never raises into the sender** — it completes a latch, queues an event,
or applies a change that waits on nobody.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable

from repro import errors
from repro.net.address import Endpoint
from repro.util.threads import spawn

Message = dict[str, Any]


class Channel(ABC):
    """A bidirectional, reliable, ordered message channel."""

    @abstractmethod
    def send(self, message: Message) -> None:
        """Send one message; raises ``ChannelClosedError`` if closed."""

    @abstractmethod
    def recv(self, timeout: float | None = None) -> Message:
        """Receive the next message.

        Blocks until a message arrives; raises ``GetTimeoutError`` on
        timeout and ``ChannelClosedError`` once the peer has closed and
        all in-flight messages are drained.
        """

    @abstractmethod
    def close(self) -> None:
        """Close both directions; idempotent."""

    @property
    @abstractmethod
    def closed(self) -> bool: ...

    @property
    @abstractmethod
    def local_host(self) -> str:
        """Host name this end lives on."""

    @property
    @abstractmethod
    def remote_host(self) -> str:
        """Host name of the peer (as known at connect/accept time)."""

    def deliver(
        self,
        on_message: Callable[[Message], None],
        on_closed: Callable[[], None],
        *,
        name: str,
    ) -> None:
        """Go push-mode: every frame from now on goes to ``on_message``,
        in send order (frames already received first), and
        ``on_closed()`` runs exactly once, after the last frame, however
        the channel closed.  ``recv`` is the sink's from here on.

        The sinks obey the sink rule (module docstring).  This default
        runs them on one reader thread called ``name``; a transport that
        can call them on the sender's thread overrides it.
        """

        def read() -> None:
            try:
                while True:
                    on_message(self.recv())
            except errors.TdpError:
                pass
            on_closed()

        spawn(read, name=name)

    # Convenience request/response helper used by thin RPC clients.
    def request(self, message: Message, timeout: float | None = None) -> Message:
        """Send ``message`` and return the next received message."""
        self.send(message)
        return self.recv(timeout=timeout)

    def send_many(self, messages) -> None:
        """Send a burst of messages in order.

        Semantically ``for m in messages: send(m)``; transports that can
        batch the write (TCP) override this to amortize the syscall.
        """
        for message in messages:
            self.send(message)

    def __enter__(self) -> "Channel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Listener(ABC):
    """A bound, listening endpoint whose inbound channels one thread serves."""

    @property
    @abstractmethod
    def endpoint(self) -> Endpoint:
        """The (host, port) this listener is bound to."""

    @abstractmethod
    def serve_loop(
        self,
        *,
        on_channel: Callable[[Channel], Any],
        on_message: Callable[[Any, Message], None],
        on_closed: Callable[[Any], None],
        name: str,
    ) -> Any:
        """Serve every inbound channel from one thread.

        Returns a handle whose idempotent ``stop()`` closes every served
        connection and joins the thread.  The callbacks run on that
        thread, and while one runs no other connection is served (so
        anything a callback sends to a channel in ``deliver`` mode may
        run the peer's sink right there, under the sink rule): a
        callback must never wait on anything that in turn waits on this
        listener, and one that waits on another daemon says so and why
        that is safe.  The channels handed up are
        push-mode: ``send`` and the bounded ``offer(message, maxsize)``
        (``False`` = the peer is ``maxsize`` frames behind; the caller
        decides its fate) enqueue from any thread, ``recv`` is unsupported.
        On a wire transport ``offer`` also takes a frame already encoded,
        length prefix included, in the channel's body ``codec``; an
        in-memory channel's ``codec`` is ``None`` and it takes dicts only.

        * ``on_channel(channel) -> token | None`` — a peer connected;
          the token is passed back below, ``None`` refuses (and closes).
        * ``on_message(token, message)`` — one frame, in send order;
          frames sent before an orderly peer close still arrive.
        * ``on_closed(token)`` — exactly once per accepted connection,
          whatever closed it (peer, server side, ``stop()``).
        """

    @abstractmethod
    def close(self) -> None:
        """Stop accepting; idempotent."""

    @property
    @abstractmethod
    def closed(self) -> bool: ...

    def __enter__(self) -> "Listener":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Transport(ABC):
    """Factory for listeners and outbound channels on some network."""

    @abstractmethod
    def listen(self, host: str, port: int = 0) -> Listener:
        """Bind a listener on ``host``.  ``port=0`` picks a free port."""

    @abstractmethod
    def connect(self, src_host: str, endpoint: Endpoint, timeout: float | None = None) -> Channel:
        """Open a channel from ``src_host`` to ``endpoint``.

        Raises ``FirewallBlockedError`` when the network forbids it and
        ``ConnectError`` when nothing is listening.
        """
