"""A served listener as a test's peer.

``Listener.serve_loop`` hands a server its channels push-mode.  A test
that wants to *read* the server end of a connection, the way a client
reads its own, takes it from :class:`ServedListener`: every frame the
loop delivers for a connection queues on that connection's
:class:`ServedEnd`, and the connection's close closes the queue.
"""

from repro.transport.base import Channel, Listener, Message
from repro.util.sync import WaitableQueue


class ServedEnd(Channel):
    """The server end of one served connection, readable again."""

    def __init__(self, channel: Channel):
        #: the push-mode channel the loop handed up
        self.channel = channel
        self.inbox: WaitableQueue[Message] = WaitableQueue()

    def send(self, message: Message) -> None:
        self.channel.send(message)

    def recv(self, timeout: float | None = None) -> Message:
        return self.inbox.get(timeout=timeout)

    def close(self) -> None:
        self.channel.close()

    @property
    def closed(self) -> bool:
        return self.channel.closed

    @property
    def local_host(self) -> str:
        return self.channel.local_host

    @property
    def remote_host(self) -> str:
        return self.channel.remote_host


class ServedListener:
    """``listener.serve_loop``, its connections taken in arrival order."""

    def __init__(self, listener: Listener):
        self.listener = listener
        self._ends: WaitableQueue[ServedEnd] = WaitableQueue()
        self._loop = listener.serve_loop(
            on_channel=self._on_channel,
            on_message=lambda end, message: end.inbox.put(message),
            on_closed=lambda end: end.inbox.close(),
            name="test-served",
        )

    @property
    def endpoint(self):
        return self.listener.endpoint

    def _on_channel(self, channel: Channel) -> ServedEnd:
        end = ServedEnd(channel)
        self._ends.put(end)
        return end

    def next_end(self, timeout: float = 5.0) -> ServedEnd:
        """The server end of the next connection the loop announced."""
        return self._ends.get(timeout=timeout)

    def close(self) -> None:
        self._loop.stop()
        self.listener.close()
