"""TDP process management (paper Sections 2.2, 2.3, 3.1).

Two layers:

* :class:`ProcessBackend` — the OS-neutral mechanism interface the paper
  asks for ("TDP provides its own set of interfaces that are OS
  neutral"), with :class:`SimHostBackend` for the simulated substrate
  (and :class:`repro.osproc.backend.PosixBackend` for real processes).

* :class:`ProcessControlService` — the *policy*: it runs inside the RM,
  which is the single owner of process control (Section 2.3).  It
  executes control requests, publishes ``proc.<pid>.status`` updates to
  the attribute space, and services control requests that run-time tools
  submit through the space ("When the RT needs to perform a process
  management operation, it contacts the RM").
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from repro import errors, obs
from repro.attrspace import protocol
from repro.attrspace.client import AttributeSpaceClient
from repro.attrspace.notify import Notification
from repro.tdp.wellknown import Attr, CreateMode, ProcStatus
from repro.util.ids import fresh_token
from repro.util.log import get_logger

_log = get_logger("tdp.process")


@dataclass
class ProcessInfo:
    """Backend-independent snapshot of one managed process."""

    pid: int
    host: str
    executable: str
    status: str  # a ProcStatus value
    exit_code: int | None = None


class ProcessBackend(ABC):
    """Mechanism interface over some process substrate (sim or POSIX)."""

    @abstractmethod
    def create(
        self,
        executable: str,
        argv: list[str],
        *,
        env: dict[str, str] | None = None,
        mode: CreateMode = CreateMode.RUN,
    ) -> ProcessInfo:
        """Create a process; ``CreateMode.PAUSED`` stops it pre-``main``."""

    @abstractmethod
    def attach(self, pid: int, tracer: str) -> ProcessInfo:
        """Attach a tracer: stop the process at its current point."""

    @abstractmethod
    def detach(self, pid: int, *, resume: bool = True) -> None: ...

    @abstractmethod
    def continue_process(self, pid: int) -> None: ...

    @abstractmethod
    def pause(self, pid: int) -> None:
        """Stop the process; returns after it has actually stopped."""

    @abstractmethod
    def kill(self, pid: int, signal: int = 15) -> None: ...

    @abstractmethod
    def status(self, pid: int) -> ProcessInfo: ...

    @abstractmethod
    def wait_exit(self, pid: int, timeout: float | None = None) -> int: ...

    @abstractmethod
    def on_exit(self, pid: int, listener: Callable[[ProcessInfo], None]) -> None:
        """Register an exit listener (fires at most once)."""

    @property
    @abstractmethod
    def hostname(self) -> str: ...


class SimHostBackend(ProcessBackend):
    """Backend over one :class:`~repro.sim.host.SimHost`."""

    #: how long pause() waits for the scheduler to park the process
    PAUSE_TIMEOUT = 10.0

    def __init__(self, host) -> None:  # host: repro.sim.host.SimHost
        self._host = host

    @property
    def hostname(self) -> str:
        return self._host.name

    def _info(self, proc) -> ProcessInfo:
        from repro.sim.process import ProcessState

        state = proc.state
        if state is ProcessState.EXITED:
            status = ProcStatus.exited(proc.exit_code)
        elif state is ProcessState.STOPPED:
            status = ProcStatus.CREATED if not proc.started else ProcStatus.STOPPED
        else:
            status = ProcStatus.RUNNING
        return ProcessInfo(
            pid=proc.pid,
            host=self._host.name,
            executable=proc.executable,
            status=status,
            exit_code=proc.exit_code,
        )

    def create(self, executable, argv, *, env=None, mode=CreateMode.RUN) -> ProcessInfo:
        proc = self._host.create_process(
            executable, argv, env=env, paused=(mode is CreateMode.PAUSED)
        )
        return self._info(proc)

    def attach(self, pid: int, tracer: str) -> ProcessInfo:
        from repro.sim.process import ProcessState

        proc = self._host.get_process(pid)
        proc.attach(tracer)
        proc.wait_for_state(
            ProcessState.STOPPED, ProcessState.EXITED, timeout=self.PAUSE_TIMEOUT
        )
        return self._info(proc)

    def detach(self, pid: int, *, resume: bool = True) -> None:
        self._host.get_process(pid).detach(resume=resume)

    def continue_process(self, pid: int) -> None:
        self._host.get_process(pid).continue_process()

    def pause(self, pid: int) -> None:
        self._host.get_process(pid).stop(timeout=self.PAUSE_TIMEOUT)

    def kill(self, pid: int, signal: int = 15) -> None:
        self._host.get_process(pid).terminate(signal)

    def status(self, pid: int) -> ProcessInfo:
        return self._info(self._host.get_process(pid))

    def wait_exit(self, pid: int, timeout: float | None = None) -> int:
        return self._host.get_process(pid).wait_for_exit(timeout=timeout)

    def on_exit(self, pid: int, listener: Callable[[ProcessInfo], None]) -> None:
        proc = self._host.get_process(pid)
        proc.on_exit(lambda p: listener(self._info(p)))


# ---------------------------------------------------------------------------
# The RM-side control service (ownership + status publication + RT requests)
# ---------------------------------------------------------------------------

class ProcessControlService:
    """RM-owned process control with attribute-space integration.

    * Direct calls (the RM's own code path) execute on the backend and
      publish status to the attribute space.
    * Tool requests arrive as ``ctl.req.<token>`` attributes carrying a
      JSON-encoded operation; the service executes them and answers in
      ``ctl.rep.<token>`` — the paper's "the RT ... contacts the RM" —
      publishing the new status and the reply in one batched frame.
    * Exit codes flow to ``proc.<pid>.status`` so status monitoring has
      a single, OS-independent source of truth (Section 2.3's answer to
      the "which process gets the termination code" mess).
    """

    def __init__(self, backend: ProcessBackend, attrs: AttributeSpaceClient):
        self._backend = backend
        self._attrs = attrs
        self._owner = attrs.member
        self._lock = threading.Lock()
        self._managed: dict[int, ProcessInfo] = {}
        #: pid -> (exit status published or "", its version, newest version
        #: published): see _publish_status
        self._published: dict[int, tuple[str, int, int]] = {}
        # tdp-guard: _sub_id -> volatile
        # (subscribe-once publish; the unsubscribe path tolerates a
        # concurrent None read by skipping)
        self._sub_id: int | None = None

    # -- publication helpers ----------------------------------------------------

    def _publish_status(
        self, pid: int, status: str, *also: tuple[str, str]
    ) -> None:
        """Publish ``proc.<pid>.status``, and ``also`` in the same frame.

        Exit is the space's last word on a process.  The exit listener
        publishes from the backend's thread, and a process just let run
        can exit before the status that says so has been sent — which
        then lands on top of the exit.  The versions the server stamps
        on the two puts tell: whichever of them is confirmed second sees
        that the exit is not the newest, and publishes it again.
        """
        version = self._attrs.put_many([(Attr.proc_status(pid), status), *also])[0]
        with self._lock:
            exit_status, exit_version, newest = self._published.get(pid, ("", 0, 0))
            if ProcStatus.is_exited(status):
                exit_status, exit_version = status, version
            newest = max(newest, version)
            self._published[pid] = (exit_status, exit_version, newest)
        if exit_status and newest > exit_version:
            self._publish_status(pid, exit_status)

    def _register_exit_publisher(self, pid: int) -> None:
        def on_exit(info: ProcessInfo) -> None:
            try:
                self._publish_status(
                    pid, info.status,
                    (Attr.proc_exit_code(pid), str(info.exit_code)),
                )
            except errors.TdpError:
                _log.debug("could not publish exit of pid %s (handle closed)", pid)
            self._attrs.wake()  # an RM parked in serve_until_exit

        self._backend.on_exit(pid, on_exit)

    # -- RM-direct operations ------------------------------------------------------

    def create(
        self,
        executable: str,
        argv: list[str],
        *,
        env: dict[str, str] | None = None,
        mode: CreateMode = CreateMode.RUN,
    ) -> ProcessInfo:
        info = self._backend.create(executable, argv, env=env, mode=mode)
        with self._lock:
            self._managed[info.pid] = info
        self._register_exit_publisher(info.pid)
        self._publish_status(info.pid, info.status)
        return info

    def attach(self, pid: int, tracer: str) -> ProcessInfo:
        self._publish_status(pid, self._apply("attach", pid, tracer))
        return self._backend.status(pid)

    def detach(self, pid: int, *, resume: bool = True) -> None:
        self._backend.detach(pid, resume=resume)
        if resume:
            self._publish_status(pid, ProcStatus.RUNNING)

    def continue_process(self, pid: int) -> None:
        self._publish_status(pid, self._apply("continue", pid))

    def pause(self, pid: int) -> None:
        self._publish_status(pid, self._apply("pause", pid))

    def kill(self, pid: int, signal: int = 15) -> None:
        self._backend.kill(pid, signal)

    def status(self, pid: int) -> ProcessInfo:
        return self._backend.status(pid)

    def wait_exit(self, pid: int, timeout: float | None = None) -> int:
        return self._backend.wait_exit(pid, timeout=timeout)

    def managed_pids(self) -> list[int]:
        with self._lock:
            return sorted(self._managed)

    # -- the RT-request channel -------------------------------------------------------

    #: operations a tool may request; "create" stays RM-only by design
    TOOL_OPS = ("attach", "continue", "pause", "kill", "detach")

    def _apply(self, op: str, pid: int, tracer: str = "") -> str | None:
        """Run one of ``TOOL_OPS`` on the backend, publishing nothing.

        Returns the status the operation leaves ``proc.<pid>.status``
        owing — ``None`` after a kill, whose exit the exit listener
        publishes."""
        if op == "attach":
            info = self._backend.attach(pid, tracer)
            with self._lock:
                self._managed.setdefault(pid, info)
            return ProcStatus.STOPPED
        if op == "pause":
            self._backend.pause(pid)
            return ProcStatus.STOPPED
        if op == "continue":
            self._backend.continue_process(pid)
            return ProcStatus.RUNNING
        if op == "detach":
            self._backend.detach(pid)
            return ProcStatus.RUNNING
        self._backend.kill(pid)
        return None

    def serve_tool_requests(self) -> None:
        """Subscribe to ``ctl.req.*`` and execute tool control requests.

        Replies are delivered when the RM services its event queue
        (callbacks run from ``tdp_service_events`` on the RM's handle) —
        the same safe-point discipline as every other TDP callback.
        """
        if self._sub_id is not None:
            return
        self._sub_id = self._attrs.subscribe(
            Attr.CTL_REQUEST_PATTERN, self._on_request, None
        )

    def _on_request(self, notification: Notification, _arg) -> None:
        """Answer one request in one frame: the status the operation left
        and the reply land together, so the tool its reply wakes never
        reads the status from before."""
        if notification.kind != "put" or notification.value is None:
            return
        token = Attr.ctl_request_token(notification.attribute)
        changed, reply = self._execute(notification.value)
        answer = (Attr.ctl_reply(token), reply)
        if changed is None:
            self._attrs.put(*answer)
        else:
            self._publish_status(*changed, answer)

    def _execute(self, payload: str) -> tuple[tuple[int, str] | None, str]:
        """Run one tool request; returns the ``(pid, status)`` it leaves
        to publish (``None`` on failure, or after a kill) and the reply."""
        try:
            request = protocol.decode_payload(payload)
            op = request["op"]
            pid = int(request["pid"])
            requester = str(request.get("requester", "?"))
        except (errors.ProtocolError, ValueError, KeyError, TypeError) as e:
            return None, f"error:malformed request ({e})"
        if op not in self.TOOL_OPS:
            return None, f"error:operation {op!r} not permitted for tools"
        try:
            status = self._apply(op, pid, requester)
        except errors.TdpError as e:
            return None, f"error:{e}"
        return None if status is None else (pid, status), "ok"


def submit_tool_request(
    attrs: AttributeSpaceClient, op: str, pid: int, *, timeout: float | None = 30.0
) -> None:
    """Tool-side: submit a control request and block for the RM's reply.

    Raises :class:`~repro.errors.NotProcessOwnerError` when the RM
    rejects the operation and propagates other RM-side failures as
    :class:`~repro.errors.ProcessError`.
    """
    token = fresh_token("ctl")
    with obs.span("ctl.request", actor=attrs.member, op=op, pid=pid):
        attrs.put(
            Attr.ctl_request(token),
            protocol.encode_payload({"op": op, "pid": pid, "requester": attrs.member}),
        )
        reply = attrs.get(Attr.ctl_reply(token), timeout=timeout)
    if reply == "ok":
        return
    message = reply[len("error:"):] if reply.startswith("error:") else reply
    if "not permitted" in message:
        raise errors.NotProcessOwnerError(message)
    raise errors.ProcessError(message)
