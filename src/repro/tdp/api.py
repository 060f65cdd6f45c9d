"""The TDP C-style API (paper Section 3).

Thin, flat functions mirroring the paper's library so daemon code reads
like the pseudo-code in the paper::

    handle = tdp_init(transport, lass_ep, member="starter", role=Role.RM,
                      backend=SimHostBackend(host))
    info = tdp_create_process(handle, "foo", ["1", "2", "3"],
                              mode=CreateMode.PAUSED)
    tdp_put(handle, "pid", str(info.pid))
    ...
    tdp_exit(handle)

Each function validates the handle's role where the paper assigns
responsibility (process *creation* is RM-only; control requests from
tools are forwarded to the RM via the attribute space).
"""

from __future__ import annotations

from typing import Any, Callable

from repro import errors, obs
from repro.attrspace.client import ReconnectPolicy
from repro.net.address import Endpoint
from repro.tdp.handle import Role, TdpHandle, open_handle
from repro.tdp.process import ProcessBackend, ProcessInfo, submit_tool_request
from repro.tdp.wellknown import Attr, CreateMode, ProcStatus
from repro.transport.base import Transport

# ---------------------------------------------------------------------------
# Initialization / teardown (Section 3.2)
# ---------------------------------------------------------------------------

def tdp_init(
    transport: Transport,
    lass_endpoint: Endpoint,
    *,
    member: str,
    role: Role,
    context: str = "default",
    src_host: str | None = None,
    backend: ProcessBackend | None = None,
    reconnect: ReconnectPolicy | None = None,
    lease_ttl: float | None = None,
) -> TdpHandle:
    """Initialize the TDP framework for one daemon; returns the handle.

    The RM passes a distinct ``context`` per tool it manages ("A
    different context parameter is used by the RM in each tdp_init call
    to create a different space", Section 3.2).  RM daemons also pass
    their process ``backend``; tool daemons do not (control is requested
    through the RM).  ``reconnect``/``lease_ttl`` opt the session into
    transparent recovery from transport faults (see ``open_handle``).
    """
    with obs.span("tdp_init", actor=member, context=context):
        return open_handle(
            transport,
            lass_endpoint,
            member=member,
            role=role,
            context=context,
            src_host=src_host,
            backend=backend,
            reconnect=reconnect,
            lease_ttl=lease_ttl,
        )


def tdp_exit(handle: TdpHandle) -> None:
    """Disengage from the TDP library and attribute space (Section 3.2).

    The context is destroyed at the server when its last member exits.
    """
    with obs.span("tdp_exit", actor=handle.member):
        handle.close()


# ---------------------------------------------------------------------------
# Attribute space: blocking (Section 3.2)
# ---------------------------------------------------------------------------

def tdp_put(
    handle: TdpHandle, attribute: str, value: str, *, ephemeral: bool = False
) -> None:
    """Blocking put: returns once the attribute is stored in the space.

    ``ephemeral`` ties the attribute to this daemon's session: the server
    purges it when the daemon detaches, its connection closes (unleased)
    or its session lease expires, so liveness claims (presence, endpoint
    advertisements) cannot outlive their author.
    """
    handle._check_open()
    with obs.span("tdp_put", actor=handle.member, attribute=attribute):
        handle.attrs.put(attribute, value, ephemeral=ephemeral)


def tdp_put_many(
    handle: TdpHandle,
    items: Any,
    *,
    ephemeral: bool = False,
) -> list[int]:
    """Batched blocking put: many attributes, one round trip.

    ``items`` is an iterable of ``(attribute, value)`` pairs or
    ``(attribute, value, ephemeral)`` triples (per-item override of the
    batch-wide flag).  Returns stored version numbers positionally.
    Equivalent to a ``tdp_put`` per item, but the server applies the
    whole list under one store-lock hold and concurrent readers see it
    atomically — the bulk-state-operation lever of the hot publishers
    (metric samples, process-launch attribute sets).
    """
    handle._check_open()
    items = list(items)
    with obs.span("tdp_put_many", actor=handle.member, count=len(items)):
        return handle.attrs.put_many(items, ephemeral=ephemeral)


def tdp_get(handle: TdpHandle, attribute: str, timeout: float | None = None) -> str:
    """Blocking get: waits until the attribute exists, then returns it."""
    handle._check_open()
    with obs.span("tdp_get", actor=handle.member, attribute=attribute):
        return handle.attrs.get(attribute, timeout=timeout)


def tdp_try_get(handle: TdpHandle, attribute: str) -> str:
    """Non-blocking get; raises ``NoSuchAttributeError`` when absent."""
    handle._check_open()
    with obs.span("tdp_try_get", actor=handle.member, attribute=attribute):
        return handle.attrs.try_get(attribute)


def tdp_remove(handle: TdpHandle, attribute: str) -> bool:
    handle._check_open()
    with obs.span("tdp_remove", actor=handle.member, attribute=attribute):
        return handle.attrs.remove(attribute)


# ---------------------------------------------------------------------------
# Attribute space: asynchronous + event notification (Sections 3.2, 3.3)
# ---------------------------------------------------------------------------

def tdp_async_get(
    handle: TdpHandle,
    attribute: str,
    callback: Callable[[Any, Exception | None, Any], None],
    callback_arg: Any = None,
) -> None:
    """Asynchronous get: returns immediately; the callback runs from
    :func:`tdp_service_events` once the value is available."""
    handle._check_open()
    with obs.span("tdp_async_get", actor=handle.member, attribute=attribute):
        handle.attrs.async_get(attribute, callback, callback_arg)


def tdp_async_put(
    handle: TdpHandle,
    attribute: str,
    value: str,
    callback: Callable[[Any, Exception | None, Any], None],
    callback_arg: Any = None,
) -> None:
    """Asynchronous put with completion callback (same delivery rules)."""
    handle._check_open()
    with obs.span("tdp_async_put", actor=handle.member, attribute=attribute):
        handle.attrs.async_put(attribute, value, callback, callback_arg)


def tdp_subscribe(
    handle: TdpHandle,
    pattern: str,
    callback: Callable[..., None],
    callback_arg: Any = None,
) -> int:
    """Subscribe to change notifications for attributes matching ``pattern``."""
    handle._check_open()
    with obs.span("tdp_subscribe", actor=handle.member, pattern=pattern):
        return handle.attrs.subscribe(pattern, callback, callback_arg)


def tdp_service_events(handle: TdpHandle, max_events: int | None = None) -> int:
    """Run pending callbacks at the daemon's safe point (Section 3.3)."""
    handle._check_open()
    return handle.service_events(max_events=max_events)


def tdp_poll(handle: TdpHandle, timeout: float | None = None) -> bool:
    """Block until the handle has serviceable events — the library's
    version of "activity on the tdp descriptor"."""
    handle._check_open()
    return handle.poll(timeout=timeout)


# ---------------------------------------------------------------------------
# Process management (Sections 2.2, 2.3, 3.1)
# ---------------------------------------------------------------------------

def _require_rm(handle: TdpHandle, operation: str) -> None:
    if handle.control is None:
        raise errors.NotProcessOwnerError(
            f"{operation} requires an RM-role handle with a process backend; "
            f"{handle.member} has role={handle.role.value}"
        )


def tdp_create_process(
    handle: TdpHandle,
    executable: str,
    argv: list[str] | None = None,
    *,
    env: dict[str, str] | None = None,
    mode: CreateMode = CreateMode.RUN,
) -> ProcessInfo:
    """Create a process; ``CreateMode.PAUSED`` stops it before ``main``.

    RM-only: "the RM creates, but does not start, the application
    process" (Section 1).  Tools needing a process created go through
    the RM (as in the pilot's submit-file flow).
    """
    handle._check_open()
    _require_rm(handle, "tdp_create_process")
    assert handle.control is not None
    with obs.span(
        "tdp_create_process", actor=handle.member,
        executable=executable, mode=mode.value,
    ):
        return handle.control.create(executable, list(argv or []), env=env, mode=mode)


def tdp_attach(handle: TdpHandle, pid: int) -> None:
    """Attach to a process: obtain control and pause it (Section 2.2 case 3).

    On an RM handle this acts directly; on a tool handle the request is
    forwarded to the RM through the attribute space and this call blocks
    until the RM confirms the process is stopped.
    """
    handle._check_open()
    with obs.span("tdp_attach", actor=handle.member, pid=pid):
        if handle.control is not None:
            handle.control.attach(pid, tracer=handle.member)
            return
        submit_tool_request(handle.attrs, "attach", pid)


def tdp_continue_process(handle: TdpHandle, pid: int) -> None:
    """Resume a stopped process (both Figure 3 scenarios end with this)."""
    handle._check_open()
    with obs.span("tdp_continue_process", actor=handle.member, pid=pid):
        if handle.control is not None:
            handle.control.continue_process(pid)
            return
        submit_tool_request(handle.attrs, "continue", pid)


def tdp_pause_process(handle: TdpHandle, pid: int) -> None:
    """Stop a running process; coordinated through the RM for tools
    (Section 2.3: pausing must not look like a fault to the RM)."""
    handle._check_open()
    with obs.span("tdp_pause_process", actor=handle.member, pid=pid):
        if handle.control is not None:
            handle.control.pause(pid)
            return
        submit_tool_request(handle.attrs, "pause", pid)


def tdp_detach(handle: TdpHandle, pid: int) -> None:
    handle._check_open()
    with obs.span("tdp_detach", actor=handle.member, pid=pid):
        if handle.control is not None:
            handle.control.detach(pid)
            return
        submit_tool_request(handle.attrs, "detach", pid)


def tdp_kill(handle: TdpHandle, pid: int) -> None:
    handle._check_open()
    with obs.span("tdp_kill", actor=handle.member, pid=pid):
        if handle.control is not None:
            handle.control.kill(pid)
            return
        submit_tool_request(handle.attrs, "kill", pid)


def tdp_process_status(handle: TdpHandle, pid: int) -> str:
    """Current ``ProcStatus`` value for a pid, read from the space.

    Any daemon may call this: status is published by the RM, the single
    source of truth, so tools never race the OS for it.
    """
    handle._check_open()
    with obs.span("tdp_process_status", actor=handle.member, pid=pid):
        return handle.attrs.get(Attr.proc_status(pid), timeout=10.0)


def tdp_wait_exit(handle: TdpHandle, pid: int, timeout: float | None = None) -> int:
    """Block until the process exits; returns the exit code.

    RM handles wait on the backend; tool handles wait for the
    ``proc.<pid>.exit_code`` attribute the RM publishes.
    """
    handle._check_open()
    with obs.span("tdp_wait_exit", actor=handle.member, pid=pid):
        if handle.control is not None:
            return handle.control.wait_exit(pid, timeout=timeout)
        return int(handle.attrs.get(Attr.proc_exit_code(pid), timeout=timeout))
