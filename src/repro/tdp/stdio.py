"""Standard input/output management (paper Section 1, interface list).

"This operation properly belongs to the RM, but must be coordinated
with the RT": the RM owns the application's stdio and forwards it to
wherever the job's owner is — typically the submit-side host.  TDP's
part is (a) a standard attribute (``stdio.endpoint``) naming where the
stream goes and (b) a relay that ships lines over a channel, proxy-aware
like all tool communication.

Wire format: ``{"stream": "stdout", "line": ...}`` frames outbound;
``{"stream": "stdin", "line": ...}`` and ``{"stream": "stdin",
"eof": true}`` inbound.
"""

from __future__ import annotations

from typing import Callable

from repro import errors
from repro.net.address import Endpoint
from repro.transport.base import Channel, Listener, Transport
from repro.transport.proxy import connect_maybe_proxied
from repro.util.log import get_logger
from repro.util.sync import WaitableQueue, tracked_lock
from repro.util.threads import spawn

_log = get_logger("tdp.stdio")


class StdioCollector:
    """Front-end side: listens for one job's stdio relay and collects lines.

    The paper's scenario: the user's desktop shows the application's
    output "at the same location as the RT's front-end".  Every relay of
    the job (one per MPI rank) ships its stdout here; the first to dial
    in, rank 0's, is the one stdin goes to, as in MPI.
    """

    def __init__(self, transport: Transport, host: str, port: int = 0):
        self._listener: Listener = transport.listen(host, port)
        self._line_queue: WaitableQueue[str] = WaitableQueue()
        self._channel: Channel | None = None
        self._lock = tracked_lock("tdp.stdio.StdioCollector._lock")
        self._stdin_pending: list[dict] = []
        self._loop = self._listener.serve_loop(
            on_channel=self._on_relay,
            on_message=self._on_frame,
            on_closed=self._on_closed,
            name=f"stdio-collect-{host}",
        )

    @property
    def endpoint(self) -> Endpoint:
        """Publish this (as ``Attr.STDIO_ENDPOINT``) for the RM to dial."""
        return self._listener.endpoint

    def _on_relay(self, channel: Channel) -> Channel | None:
        with self._lock:
            if self._channel is not None:
                return channel  # another rank's relay: stdout only
            self._channel = channel
            backlog, self._stdin_pending = self._stdin_pending, []
        try:
            for frame in backlog:
                channel.send(frame)
        except errors.TdpError:
            pass  # the relay is already gone: its on_closed follows
        return channel

    def _on_closed(self, channel: Channel) -> None:
        with self._lock:
            stdin_relay = channel is self._channel
        if stdin_relay:
            self._line_queue.close()

    def _on_frame(self, channel: Channel, frame: dict) -> None:
        if frame.get("stream") == "stdout":
            self._on_line(str(frame.get("line", "")))

    def _on_line(self, line: str) -> None:
        """One stdout line from the job, on the serving thread: queued
        for :meth:`wait_line` here, consumed in place by a subclass."""
        self._line_queue.put(line)

    def wait_line(self, timeout: float | None = 10.0) -> str:
        """Block for the next stdout line from the job.

        The queue closes however the first relay's connection ends — it
        hung up, or the collector was closed before one dialled in — so a
        reader parked here always wakes."""
        return self._line_queue.get(timeout=timeout)

    def send_stdin(self, line: str) -> None:
        """Queue a stdin line for the job (buffered until the relay dials in)."""
        frame = {"stream": "stdin", "line": line}
        with self._lock:
            if self._channel is None:
                self._stdin_pending.append(frame)
                return
            channel = self._channel
        channel.send(frame)

    def send_eof(self) -> None:
        frame = {"stream": "stdin", "eof": True}
        with self._lock:
            if self._channel is None:
                self._stdin_pending.append(frame)
                return
            channel = self._channel
        channel.send(frame)

    def close(self) -> None:
        self._loop.stop()  # closes the relay's connection
        self._listener.close()
        self._line_queue.close()


class StdioRelay:
    """RM side: bridges one application's stdio to the collector endpoint.

    ``attach_stdout`` registers a sink with the process (the sim backend
    exposes per-process stdout sinks; the POSIX backend pumps pipes into
    the same call), and inbound stdin frames are pushed through
    ``feed_stdin``/``close_stdin`` callables supplied by the backend.  A
    relay with no ``feed_stdin`` (an MPI worker rank's) only ships
    stdout, and starts no thread.
    """

    def __init__(
        self,
        transport: Transport,
        src_host: str,
        endpoint: Endpoint,
        *,
        proxy: Endpoint | None = None,
        feed_stdin: Callable[[str], None] | None = None,
        close_stdin: Callable[[], None] | None = None,
    ):
        self._channel = connect_maybe_proxied(transport, src_host, endpoint, proxy)
        self._feed_stdin = feed_stdin
        self._close_stdin = close_stdin
        if feed_stdin is not None:
            spawn(self._stdin_pump, name=f"stdio-relay-{src_host}")

    def forward_stdout(self, line: str) -> None:
        """Ship one application stdout line to the collector.

        Holds no lock: a process's lines already arrive one at a time (a
        sim process calls its sinks under its own lock, the POSIX
        backend from one pump thread per process), and a channel's
        ``send`` is thread-safe on its own.
        """
        try:
            self._channel.send({"stream": "stdout", "line": line})
        except errors.TdpError:
            _log.warning("stdio relay lost its collector; dropping output")

    def _stdin_pump(self) -> None:
        try:
            while True:
                frame = self._channel.recv()
                if frame.get("stream") != "stdin":
                    continue
                if frame.get("eof"):
                    if self._close_stdin is not None:
                        self._close_stdin()
                    continue
                assert self._feed_stdin is not None
                self._feed_stdin(str(frame.get("line", "")))
        except errors.TdpError:
            pass

    def close(self) -> None:
        self._channel.close()
