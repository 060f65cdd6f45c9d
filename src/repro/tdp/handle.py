"""TdpHandle: the object ``tdp_init`` returns.

"On success, tdp_init will return a tdp handle, which will be used in
any TDP subsequent action" (Section 3.2).  A handle bundles:

* the daemon's identity (member name, role);
* its one attribute-space session (an :class:`AttributeSpaceClient`
  bound to one context on the local server);
* for RM-role handles, the :class:`ProcessControlService` over the local
  process backend;
* the one event queue — the "tdp descriptor" — that ``tdp_poll`` waits
  on and ``tdp_service_events`` drains.
"""

from __future__ import annotations

import enum
import threading
from typing import Callable

from repro import errors, obs
from repro.attrspace.client import AttributeSpaceClient, ReconnectPolicy
from repro.net.address import Endpoint
from repro.tdp.process import ProcessBackend, ProcessControlService
from repro.transport.base import Transport
from repro.util.clock import WallClock, deadline_after, time_left
from repro.util.sync import tracked_lock
from repro.util.threads import spawn


class Role(enum.Enum):
    """Which kind of daemon holds this handle."""

    RM = "rm"    # resource manager daemon: owns process control
    RT = "rt"    # run-time tool daemon: requests control via the RM
    AP = "ap"    # application-side helper (stdio endpoints etc.)
    AS = "as"    # auxiliary service daemon


_SERVE_CLOCK = WallClock()


class TdpHandle:
    """One daemon's TDP session.  Create via :func:`repro.tdp.api.tdp_init`."""

    def __init__(
        self,
        *,
        member: str,
        role: Role,
        context: str,
        lass: AttributeSpaceClient,
        backend: ProcessBackend | None = None,
    ):
        self.member = member
        self.role = role
        self.context = context
        self.lass = lass
        # tdp-guard: _closed -> volatile
        # (monotonic close latch: writes serialize under _lock, the
        # lock-free reads in _check_open/closed race with tdp_exit by
        # design — a stale open answer is indistinguishable from the
        # call having happened just before the close)
        self._closed = False
        self._lock = tracked_lock("tdp.handle.TdpHandle._lock")
        self._service_thread: threading.Thread | None = None
        self._service_stop = threading.Event()

        self.control: ProcessControlService | None = None
        if backend is not None:
            if role is not Role.RM:
                raise errors.HandleError(
                    "only RM-role handles may own a process backend "
                    "(paper Section 2.3: process control belongs to the RM)"
                )
            self.control = ProcessControlService(backend, lass)

    @property
    def attrs(self) -> AttributeSpaceClient:
        """The local space session (every daemon has one)."""
        return self.lass

    # -- event servicing -----------------------------------------------------------

    def service_events(self, max_events: int | None = None) -> int:
        """Run pending callbacks at this (safe) point; returns the count."""
        self._check_open()
        return self.lass.service_events(max_events=max_events)

    def has_pending_events(self) -> bool:
        return self.lass.has_pending_events()

    def poll(self, timeout: float | None = None) -> bool:
        """Block until the session has a serviceable event (or timeout)."""
        return self.lass.wait_event(timeout=timeout)

    def serve(self, until: Callable[[], bool], timeout: float | None = None) -> None:
        """Run ``service_events`` on the calling thread until ``until()``
        holds, ``timeout`` seconds have passed, or the session ends (the
        handle was closed, or the session failed and closed its event
        queue).

        The poll loop of the paper's event model: every callback for this
        handle runs on the one thread that serves it, at this safe point.
        It parks in ``poll`` with no timer, so whatever makes ``until``
        true must wake the handle (:meth:`AttributeSpaceClient.wake`); a
        ``timeout`` is one wall timer that does so.
        """
        if timeout is not None:
            deadline = deadline_after(timeout)
            timer = _SERVE_CLOCK.call_later(timeout, self.attrs.wake)
            try:
                self.serve(lambda: until() or time_left(deadline) == 0)
            finally:
                timer.cancel()
            return
        while True:
            try:
                self.service_events()
            except errors.TdpError:
                return
            if until():
                return
            if not self.poll(None):
                # an untimed poll comes back empty only from a closed queue
                obs.record("handle.serve.end", actor=self.member, reason="session over")
                return

    def serve_until_exit(self, pid: int, timeout: float | None = None) -> int:
        """Answer this handle's tool requests on the calling thread until
        ``pid`` exits; returns its exit code (``GetTimeoutError`` after
        ``timeout`` seconds).

        The RM's poll loop: the thread that waits for a process is the
        one that services its tools.  The control service's exit
        listener wakes the handle once it has published the exit.  A
        failed session leaves a plain wait for the exit.
        """
        control = self.control
        assert control is not None, "only an RM handle controls processes"
        deadline = deadline_after(timeout)
        self.serve(until=lambda: control.status(pid).exit_code is not None, timeout=timeout)
        return control.wait_exit(pid, timeout=time_left(deadline))

    def start_service_loop(self) -> None:
        """Run :meth:`serve` on a background thread until stopped.

        For a daemon with no loop of its own to serve from (a tool
        front-end, a test's RM); a daemon that waits for a process serves
        from that wait instead (:meth:`serve_until_exit`).
        :meth:`stop_service_loop` or a failed session ends it.
        """
        with self._lock:
            if self._service_thread is not None:
                return
            self._service_stop.clear()
            self._service_thread = spawn(
                self.serve, args=(self._service_stop.is_set,),
                name=f"tdp-service-{self.member}",
            )

    def stop_service_loop(self) -> None:
        with self._lock:
            thread = self._service_thread
            self._service_thread = None
        if thread is not None:
            self._service_stop.set()
            self.lass.wake()
            thread.join(timeout=5.0)

    # -- lifecycle --------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise errors.HandleError(f"handle {self.member} is closed (tdp_exit)")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """``tdp_exit``: leave the context and release resources."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        obs.record("handle.close", actor=self.member, role=self.role.value)
        self.stop_service_loop()
        self.lass.close()

    def __enter__(self) -> "TdpHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<TdpHandle {self.member} role={self.role.value} "
            f"context={self.context!r}{' closed' if self._closed else ''}>"
        )


def open_handle(
    transport: Transport,
    lass_endpoint: Endpoint,
    *,
    member: str,
    role: Role,
    context: str = "default",
    src_host: str | None = None,
    backend: ProcessBackend | None = None,
    connect_timeout: float = 10.0,
    reconnect: ReconnectPolicy | None = None,
    lease_ttl: float | None = None,
) -> TdpHandle:
    """Implementation behind ``tdp_init``: connect the session, build handle.

    ``src_host`` defaults to the backend's host (RM case) and must be
    given otherwise — it determines which side of the firewall the
    daemon connects from.

    Passing ``reconnect`` (a :class:`ReconnectPolicy`) makes the
    session self-healing: a dead channel is re-dialed, the attach
    handshake re-run, and subscriptions/in-flight requests replayed.
    ``lease_ttl`` sets the server-side session lease (defaults to 30 s
    when reconnection is on), bounding how long the server preserves a
    silent daemon's membership and ephemeral attributes.
    """
    if src_host is None:
        if backend is None:
            raise errors.HandleError("src_host required when no backend is given")
        src_host = backend.hostname
    if reconnect is not None and lease_ttl is None:
        lease_ttl = 30.0

    if reconnect is not None:
        lass = AttributeSpaceClient.connect(
            transport, src_host, lass_endpoint,
            context=context, member=member, reconnect=reconnect,
            lease_ttl=lease_ttl, connect_timeout=connect_timeout,
        )
    else:
        channel = transport.connect(src_host, lass_endpoint, timeout=connect_timeout)
        lass = AttributeSpaceClient(
            channel, context=context, member=member, lease_ttl=lease_ttl
        )
    obs.record("handle.open", actor=member, role=role.value, context=context)
    return TdpHandle(
        member=member,
        role=role,
        context=context,
        lass=lass,
        backend=backend,
    )
