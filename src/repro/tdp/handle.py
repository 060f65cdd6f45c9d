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

from repro import errors, obs
from repro.attrspace.client import AttributeSpaceClient, ReconnectPolicy
from repro.net.address import Endpoint
from repro.tdp.process import ProcessBackend, ProcessControlService
from repro.transport.base import Transport
from repro.util.sync import tracked_lock
from repro.util.threads import spawn


class Role(enum.Enum):
    """Which kind of daemon holds this handle."""

    RM = "rm"    # resource manager daemon: owns process control
    RT = "rt"    # run-time tool daemon: requests control via the RM
    AP = "ap"    # application-side helper (stdio endpoints etc.)
    AS = "as"    # auxiliary service daemon


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

    def start_service_loop(self) -> None:
        """Run ``service_events`` on a background thread until stopped.

        Daemons in this library that have no other main loop (e.g. the
        Condor starter while a job runs) use this instead of a hand-
        written poll loop; it preserves the safe-point discipline because
        all callbacks for this handle run on this single thread.  It parks in
        ``poll`` with no timer: :meth:`stop_service_loop` or a failed session ends it.
        """
        with self._lock:
            if self._service_thread is not None:
                return
            self._service_stop.clear()
            self._service_thread = spawn(
                self._service_loop, name=f"tdp-service-{self.member}"
            )

    def _service_loop(self) -> None:
        while not self._service_stop.is_set():
            try:
                self.service_events()
            except errors.TdpError:
                return
            if not self._service_stop.is_set() and not self.poll(None):
                # an untimed poll comes back empty only from a closed queue
                obs.record("handle.service_loop.end", actor=self.member, reason="session over")
                return

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
