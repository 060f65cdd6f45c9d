"""paradyn: the tool front-end and user interface process.

"Paradyn contains the user interface that allows the user to display
performance data visualizations, use the Performance Consultant to
automatically find bottlenecks, start or stop the application, and
monitor the status of the application.  The paradynds operate under the
control of paradyn" (Section 4.2).

The front-end listens on the submit-side host; each paradynd dials in
(directly or through the RM proxy), introduces itself, and streams
metric samples.  The front-end can push commands back: run, enable a
metric on a focus, kill.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro import errors
from repro.net.address import Endpoint
from repro.paradyn.metrics import Metric
from repro.transport.base import Channel, Transport
from repro.util.log import get_logger

_log = get_logger("paradyn.frontend")


@dataclass
class DaemonSession:
    """Front-end-side state for one connected paradynd."""

    daemon_id: int
    job: str
    host: str
    pid: int
    executable: str
    functions: list[str]
    #: the daemon's connection; ``None`` once it closed (the session
    #: outlives it: its series and state stay readable)
    channel: Channel | None
    app_state: str = "attached"
    exit_code: int | None = None
    #: (metric, focus) -> list of (time, value), appended as samples arrive
    series: dict[tuple[str, str], list[tuple[float, float]]] = field(
        default_factory=dict
    )
    state_changed: threading.Condition = field(
        default_factory=threading.Condition, repr=False
    )

    def latest(self, metric: str, focus_suffix: str | None = None) -> float | None:
        """Latest value of a metric, optionally filtered by focus suffix
        (e.g. a function name)."""
        best: tuple[float, float] | None = None
        with self.state_changed:
            for (m, focus), points in self.series.items():
                if m != metric or not points:
                    continue
                if focus_suffix is not None and not focus.endswith("/" + focus_suffix):
                    continue
                if focus_suffix is None and "/" in focus.split(":", 1)[-1]:
                    # whole-process query must not match function foci
                    if focus.count("/") > 0:
                        continue
                if best is None or points[-1][0] >= best[0]:
                    best = points[-1]
        return best[1] if best else None

    def histogram(self, metric: str, focus_suffix: str | None = None):
        """The series as a Paradyn-style folding time histogram.

        Constant-memory view of arbitrarily long runs; see
        :mod:`repro.paradyn.histogram`.
        """
        from repro.paradyn.histogram import TimeHistogram

        with self.state_changed:
            for (m, focus), points in self.series.items():
                if m != metric:
                    continue
                if focus_suffix is not None and not focus.endswith(
                    "/" + focus_suffix
                ):
                    continue
                if focus_suffix is None and focus.count("/") > 0:
                    continue
                return TimeHistogram.from_points(list(points), mode="last")
        return TimeHistogram.from_points([], mode="last")

    def wait_state(self, *states: str, timeout: float | None = None) -> str:
        with self.state_changed:
            ok = self.state_changed.wait_for(
                lambda: self.app_state in states, timeout=timeout
            )
            if not ok:
                raise errors.GetTimeoutError(
                    f"daemon {self.daemon_id} app_state={self.app_state}, "
                    f"wanted {states}"
                )
            return self.app_state

    # -- commands -----------------------------------------------------------------

    def cmd_run(self) -> None:
        self._send({"op": "cmd_run"})

    def cmd_enable_metric(self, metric: Metric, function: str | None) -> None:
        self._send(
            {"op": "cmd_enable_metric", "metric": metric.value, "function": function}
        )

    def cmd_kill(self) -> None:
        self._send({"op": "cmd_kill"})

    def _send(self, message: dict) -> None:
        channel = self.channel
        if channel is None:
            raise errors.ChannelClosedError(
                f"paradynd {self.daemon_id} disconnected"
            )
        channel.send(message)


@dataclass
class _Link:
    """One served connection: a paradynd until its hello, then its session."""

    channel: Channel
    session: DaemonSession | None = None


class ParadynFrontend:
    """The listening front-end; one per user session."""

    def __init__(self, transport: Transport, host: str, port: int = 0):
        self._transport = transport
        self.host = host
        self._listener = transport.listen(host, port)
        self._daemons: dict[int, DaemonSession] = {}
        self._next_id = 0
        self._lock = threading.Lock()
        self._daemon_arrived = threading.Condition(self._lock)
        self._loop = self._listener.serve_loop(
            on_channel=_Link,
            on_message=self._on_message,
            on_closed=self._on_closed,
            name=f"paradyn-frontend-{host}",
        )

    @property
    def endpoint(self) -> Endpoint:
        return self._listener.endpoint

    def stop(self) -> None:
        self._loop.stop()  # closes every daemon's connection
        self._listener.close()

    # -- daemon registry ------------------------------------------------------------

    def daemons(self) -> list[DaemonSession]:
        """Every daemon that connected, in id order (ids are assigned and
        inserted in one ``_lock`` hold, so insertion order is id order)."""
        with self._lock:
            return list(self._daemons.values())

    def wait_for_daemons(self, count: int, timeout: float | None = 30.0) -> list[DaemonSession]:
        with self._daemon_arrived:
            ok = self._daemon_arrived.wait_for(
                lambda: len(self._daemons) >= count, timeout=timeout
            )
            if not ok:
                raise errors.GetTimeoutError(
                    f"only {len(self._daemons)}/{count} paradynds connected"
                )
            return list(self._daemons.values())

    # -- wire handling ------------------------------------------------------------------

    def _on_message(self, link: _Link, message: dict) -> None:
        if link.session is not None:
            self._handle(link.session, message)
        elif message.get("op") == "hello":
            link.session = self._register(link.channel, message)
        else:
            link.channel.close()  # not a paradynd

    @staticmethod
    def _on_closed(link: _Link) -> None:
        if link.session is not None:
            link.session.channel = None

    def _register(self, channel: Channel, hello: dict) -> DaemonSession:
        with self._lock:
            self._next_id += 1
            session = DaemonSession(
                daemon_id=self._next_id,
                job=str(hello.get("job", "?")),
                host=str(hello.get("host", "?")),
                pid=int(hello.get("pid", -1)),
                executable=str(hello.get("executable", "?")),
                functions=list(hello.get("functions", [])),
                channel=channel,
            )
            self._daemons[session.daemon_id] = session
            self._daemon_arrived.notify_all()
        _log.info("paradynd connected: job=%s pid=%s", session.job, session.pid)
        return session

    def _handle(self, session: DaemonSession, message: dict) -> None:
        op = message.get("op")
        if op == "sample":
            key = (str(message.get("metric")), str(message.get("focus")))
            point = (float(message.get("time", 0.0)), float(message.get("value", 0.0)))
            with session.state_changed:
                session.series.setdefault(key, []).append(point)
        elif op == "app_state":
            with session.state_changed:
                session.app_state = str(message.get("state"))
                session.state_changed.notify_all()
        elif op == "app_exited":
            with session.state_changed:
                session.app_state = "exited"
                session.exit_code = int(message.get("code", -1))
                session.state_changed.notify_all()
        elif op == "bye":
            pass
        elif op == "error":
            _log.warning("paradynd error: %s", message.get("error"))
