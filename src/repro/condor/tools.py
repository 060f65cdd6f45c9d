"""Tool daemon registry: how the starter launches a run-time tool by name.

In the pilot, ``+ToolDaemonCmd = "paradynd"`` names an executable the
starter spawns with ``tdp_create_process`` (Figure 6, step 2).  Our tool
daemons are Python objects running on daemon threads, so the registry
maps the command name to a launcher; the starter still performs (and
traces) the TDP create call, preserving the protocol sequence.

The ``%name`` placeholders in ``+ToolDaemonArgs`` are the pilot's
"temporary mechanism to show which information the starter should put
into LASS and which information should paradynd get from there"
(Section 4.3): the starter *publishes* each named attribute and passes
the argument through *verbatim*; a tool that sees a ``%`` argument knows
it is running under TDP and fetches the value with ``tdp_get``.
"""

from __future__ import annotations

import re
import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ToolError
from repro.net.address import Endpoint
from repro.transport.base import Transport
from repro.util.log import TraceRecorder
from repro.util.threads import spawn

_PERCENT_RE = re.compile(r"%([A-Za-z_][A-Za-z0-9_]*)")


def percent_names(args_template: str) -> list[str]:
    """The attribute names a ToolDaemonArgs template asks the starter to
    publish (e.g. ``"-a%pid"`` -> ``["pid"]``)."""
    return _PERCENT_RE.findall(args_template)


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


class ToolDaemonHandle(ABC):
    """A launched tool daemon, as seen by the starter."""

    @abstractmethod
    def join(self, timeout: float | None = None) -> None:
        """Wait for the daemon to finish its work."""

    @abstractmethod
    def stop(self) -> None:
        """Ask the daemon to shut down; idempotent."""

    @property
    @abstractmethod
    def failed(self) -> bool: ...


class ThreadToolHandle(ToolDaemonHandle):
    """Runs ``daemon.run(stop_event)``; :meth:`stop` sets the event and calls ``daemon.wake()``."""

    def __init__(self, name: str, daemon) -> None:
        self.daemon = daemon
        self._stop_event = threading.Event()
        self._error: BaseException | None = None

        def runner() -> None:
            try:
                daemon.run(self._stop_event)
            except BaseException as e:  # noqa: BLE001 — recorded for the starter
                self._error = e

        self._thread = spawn(runner, name=name)

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise ToolError(f"tool daemon {self._thread.name} did not finish")

    def stop(self) -> None:
        self._stop_event.set()
        self.daemon.wake()

    @property
    def failed(self) -> bool:
        return self._error is not None

    @property
    def error(self) -> BaseException | None:
        return self._error


ToolLauncher = Callable[[ToolLaunchContext], ToolDaemonHandle]


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
