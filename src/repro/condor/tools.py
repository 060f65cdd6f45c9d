"""Tool daemon registry: how the starter launches a run-time tool by name.

In the pilot, ``+ToolDaemonCmd = "paradynd"`` names an executable the
starter spawns with ``tdp_create_process`` (Figure 6, step 2).  Our tool
daemons are Python objects running on daemon threads, so the registry
maps the command name to a launcher; the starter still performs (and
traces) the TDP create call, preserving the protocol sequence.

The ``%name`` placeholders in ``+ToolDaemonArgs`` are the pilot's
"temporary mechanism to show which information the starter should put
into LASS and which information should paradynd get from there"
(Section 4.3): the starter's launch record *publishes* the named
attributes (the pid and its companions) and the argument passes through
*verbatim*; a tool that sees a ``%`` argument knows it is running under
TDP and fetches the value with ``tdp_get``.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ToolError
from repro.net.address import Endpoint
from repro.tdp.handle import TdpHandle
from repro.transport.base import Transport
from repro.util.clock import deadline_after, time_left
from repro.util.log import TraceRecorder
from repro.util.sync import tracked_lock
from repro.util.threads import spawn

@dataclass
class ToolLaunchContext:
    """Everything a tool daemon launcher receives from the starter."""

    transport: Transport
    host: str                     # execution host the daemon runs on
    lass_endpoint: Endpoint       # the LASS to tdp_init against
    context: str                  # attribute-space context for this job
    args: list[str]               # ToolDaemonArgs, %names passed verbatim
    job_id: str
    trace: TraceRecorder | None = None
    #: where the daemon's own stdout/stderr go (host-fs paths), per
    #: +ToolDaemonOutput / +ToolDaemonError
    output_sink: Callable[[str], None] = lambda line: None
    #: sim-only escape hatch for instrumentation engines
    extras: dict = field(default_factory=dict)


class ThreadToolHandle:
    """A launched tool daemon, as seen by the starter: runs
    ``daemon.run(stop_event)`` on its own thread; :meth:`stop` sets the
    event and calls ``daemon.wake()``."""

    def __init__(self, name: str, daemon) -> None:
        self.daemon = daemon
        self._stop_event = threading.Event()
        self._error: BaseException | None = None
        self._ended = threading.Event()
        self._end_callbacks: list[Callable[[], None]] = []
        self._lock = tracked_lock("condor.tools.ThreadToolHandle._lock")

        def runner() -> None:
            try:
                daemon.run(self._stop_event)
            except BaseException as e:  # noqa: BLE001 — recorded for the starter
                self._error = e
            finally:
                with self._lock:
                    self._ended.set()
                    callbacks = list(self._end_callbacks)
                for callback in callbacks:
                    callback()

        self._thread = spawn(runner, name=name)

    def join(self, timeout: float | None = None) -> None:
        """Wait for the daemon to finish its work."""
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ToolError(f"tool daemon {self._thread.name} did not finish")

    def stop(self) -> None:
        """Ask the daemon to shut down; idempotent."""
        self._stop_event.set()
        self.daemon.wake()

    def on_end(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once the daemon has ended (at once if it has)."""
        with self._lock:
            if not self._ended.is_set():
                self._end_callbacks.append(callback)
                return
        callback()

    @property
    def ended(self) -> bool:
        return self._ended.is_set()

    @property
    def error(self) -> BaseException | None:
        return self._error


ToolLauncher = Callable[[ToolLaunchContext], ThreadToolHandle]

#: after its job's exit, a tool daemon has ``TOOL_GRACE`` seconds to end
#: on its own (final samples, trace file), then ``TOOL_STOP_GRACE`` more
#: once asked to stop
TOOL_GRACE = 5.0
TOOL_STOP_GRACE = 10.0


def serve_until_ended(handle: TdpHandle, tool: ThreadToolHandle) -> None:
    """Once its job has exited, answer ``tool``'s requests on the RM's
    ``handle`` from the calling thread until the tool daemon has ended.

    The RM serves its tool from the process's launch to the tool's end,
    so a request that raced the exit (an attach, a continue, a pause)
    gets its error reply at once rather than waiting out its timeout.
    The tool's end wakes the handle.
    """
    tool.on_end(handle.attrs.wake)
    if not _serve_for(handle, tool, TOOL_GRACE):
        tool.stop()
        _serve_for(handle, tool, TOOL_STOP_GRACE)


def write_tool_output(filesystem: dict[str, str], path: str | None, lines: list[str]) -> None:
    """Append an ended tool daemon's lines to its ``+ToolDaemonOutput``
    file on the host it ran on, in one write (a buffered file, flushed
    on close)."""
    if path and lines:
        filesystem[path] = filesystem.get(path, "") + "".join(line + "\n" for line in lines)


def _serve_for(handle: TdpHandle, tool: ThreadToolHandle, grace: float) -> bool:
    """Serve until ``tool`` has ended or ``grace`` has run out; True if it
    ended.  A failed session ends the serving, not the grace."""
    deadline = deadline_after(grace)
    handle.serve(until=lambda: tool.ended, timeout=grace)
    with contextlib.suppress(ToolError):
        tool.join(timeout=time_left(deadline))
    return tool.ended


class ToolRegistry:
    """Command name -> launcher (the starter's PATH for tool daemons)."""

    def __init__(self) -> None:
        self._launchers: dict[str, ToolLauncher] = {}
        self._lock = threading.Lock()

    def register(self, name: str, launcher: ToolLauncher) -> None:
        with self._lock:
            if name in self._launchers:
                raise ValueError(f"tool {name!r} already registered")
            self._launchers[name] = launcher

    def resolve(self, name: str) -> ToolLauncher:
        with self._lock:
            launcher = self._launchers.get(name)
        if launcher is None:
            raise ToolError(f"no such tool daemon {name!r} (registered: "
                            f"{sorted(self._launchers)})")
        return launcher

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._launchers)
