"""Simulated process: state machine, interpreter state, tracing hooks.

A :class:`SimProcess` owns a virtual program (generator), a mailbox,
stdio buffers, CPU accounting, and — crucially for TDP — the stop/attach
machinery:

* ``create paused``  → state STOPPED with the generator *unstarted*
  (the paper's "stopped just after the exec call": no library init, no
  ``main``); the RT attaches and instruments before anything ran.
* ``attach``         → a tracer is registered and the process stops at a
  syscall boundary ("some unknown point in its execution").
* ``continue``       → a STOPPED process resumes — to RUNNABLE, or back
  to BLOCKED if it was parked on an incomplete blocking syscall.

Control operations are *mechanism* here; the policy of who may call them
(the RM, per paper Section 2.3) is enforced by :mod:`repro.tdp.process`.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import AttachError, InvalidProcessStateError
from repro.sim.syscalls import MsgRecord, Program, SysCall
from repro.util.sync import tracked_condition, tracked_rlock

if TYPE_CHECKING:
    from repro.sim.host import SimHost


class ProcessState(enum.Enum):
    """Externally visible process states."""

    STOPPED = "stopped"    # created-paused, signalled stop, or tracer stop
    RUNNABLE = "runnable"  # ready; the scheduler will step it
    BLOCKED = "blocked"    # parked on an incomplete blocking syscall
    EXITED = "exited"      # terminal


class StopReason(enum.Enum):
    """Why a process is STOPPED (diagnostic detail for the tracer)."""

    CREATED_PAUSED = "created-paused"
    SIGNAL = "signal"
    TRACER = "tracer"
    BREAKPOINT = "breakpoint"


@dataclass
class ProbePoint:
    """A dynamic-instrumentation probe at a function entry or exit.

    ``action(process, function, where)`` runs on the scheduler thread;
    it may call :meth:`SimProcess.stop_at_probe` (a breakpoint) but must
    not block.  Probes are inserted/removed by the tool at run time —
    the Dyninst capability the pilot relies on.
    """

    probe_id: int
    function: str
    where: str  # "entry" | "exit"
    action: Callable[["SimProcess", str, str], None]


@dataclass
class FunctionFrame:
    """One live stack frame (for CPU attribution and tool stack walks)."""

    name: str
    entered_cpu: float  # process CPU time at entry
    child_cpu: float = 0.0


class SimProcess:
    """One simulated process.  All mutation happens under ``self.lock``.

    The interpreter fields (``_generator``, ``pending_syscall``, …) are
    only touched by the scheduler thread; state transitions are shared
    with control threads and guarded by the lock + condition.
    """

    def __init__(
        self,
        host: "SimHost",
        pid: int,
        program: Program,
        argv: list[str],
        env: dict[str, str] | None = None,
        *,
        paused: bool,
        executable: str = "?",
    ):
        self.host = host
        self.pid = pid
        self.argv = list(argv)
        self.env = dict(env or {})
        self.executable = executable

        self.lock = tracked_rlock("sim.process.SimProcess.lock")
        self.state_changed = tracked_condition("sim.process.SimProcess.lock", self.lock)
        self.state = ProcessState.STOPPED if paused else ProcessState.RUNNABLE
        self.stop_reason: StopReason | None = (
            StopReason.CREATED_PAUSED if paused else None
        )
        self._stop_requested: StopReason | None = None
        #: how many times the process has entered STOPPED (see stop())
        self._stops = 0

        # Interpreter state (scheduler thread only).
        self._generator = program
        # tdp-guard: _started -> volatile
        # (monotonic latch set at the first executed syscall; the
        # `started` property reads it under the lock, the scheduler's
        # own read-modify-write is single-threaded by confinement)
        self._started = False
        # tdp-guard: pending_syscall -> confined:sim.kernel.Scheduler._loop
        # (terminate()'s cross-thread clear in _finish is individually
        # waived: it runs under the lock after EXITED is published)
        self.pending_syscall: SysCall | None = None
        self._last_result: Any = None
        self._sleep_until: float | None = None
        #: set when a terminate() raced the scheduler and could not close
        #: the generator itself; the scheduler finishes the close
        self._close_pending = False

        # Accounting and tool-visible structure.
        self.cpu_time = 0.0
        #: virtual time at first executed syscall / at exit (wall-clock
        #: analogue; Sleep advances wall but not CPU)
        # tdp-guard: start_vtime -> volatile
        # (written once by the scheduler at first execution; accounting
        # readers tolerate None-until-started)
        self.start_vtime: float | None = None
        self.end_vtime: float | None = None
        self.frames: list[FunctionFrame] = []
        self.functions_seen: set[str] = set()
        self.probes: dict[tuple[str, str], list[ProbePoint]] = {}

        # I/O.
        self.mailbox: list[MsgRecord] = []
        self.stdin_lines: list[str] = []
        self.stdin_eof = False
        self.stdout_lines: list[str] = []
        self.stdout_sinks: list[Callable[[str], None]] = []

        # Termination.
        # tdp-guard: exit_code -> volatile
        # (written once, under the lock, before EXITED is published;
        # readers are ordered after it by wait_for_state)
        self.exit_code: int | None = None
        self.exit_signal: int | None = None
        self.fault: str | None = None
        self.exit_listeners: list[Callable[["SimProcess"], None]] = []

        # Tracing.
        self.tracer: str | None = None

    # -- identity ---------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"<SimProcess {self.host.name}:{self.pid} {self.executable!r} "
            f"{self.state.value}>"
        )

    # -- state queries ------------------------------------------------------

    @property
    def alive(self) -> bool:
        with self.lock:
            return self.state is not ProcessState.EXITED

    @property
    def started(self) -> bool:
        """Has the program executed at least one syscall?  ``False`` for a
        created-paused process that nobody continued yet — the window in
        which pre-``main`` instrumentation is possible."""
        with self.lock:
            return self._started

    def wait_for_state(
        self, *states: ProcessState, timeout: float | None = None
    ) -> ProcessState:
        """Block until the process reaches one of ``states``."""
        with self.state_changed:
            ok = self.state_changed.wait_for(
                lambda: self.state in states, timeout=timeout
            )
            if not ok:
                raise InvalidProcessStateError(
                    f"{self!r} did not reach {[s.value for s in states]} "
                    f"within {timeout}s"
                )
            return self.state

    def wait_for_exit(self, timeout: float | None = None) -> int:
        """Block until exit; returns the exit code."""
        self.wait_for_state(ProcessState.EXITED, timeout=timeout)
        assert self.exit_code is not None
        return self.exit_code

    # -- control operations (mechanism) ---------------------------------------

    def request_stop(self, reason: StopReason = StopReason.TRACER) -> None:
        """Ask the process to stop at the next syscall boundary.

        Takes effect immediately for BLOCKED/STOPPED processes; a RUNNABLE
        process stops when the scheduler reaches it (use
        :meth:`wait_for_state` to synchronize).
        """
        with self.state_changed:
            if self.state is ProcessState.EXITED:
                raise InvalidProcessStateError(f"{self!r} has exited")
            if self.state is ProcessState.STOPPED:
                return
            if self.state is ProcessState.BLOCKED:
                self._set_state(ProcessState.STOPPED, reason)
                return
            # RUNNABLE: the scheduler honors the flag between syscalls.
            self._stop_requested = reason

    def stop(
        self, reason: StopReason = StopReason.TRACER, timeout: float | None = None
    ) -> ProcessState:
        """Request a stop and block until it has taken effect, or the
        process exited.

        The wait is for the stop, not for the state: a continue from
        another controller may resume the process before this waiter
        runs again, and the stop it asked for has still happened.
        """
        with self.state_changed:
            stops = self._stops
            self.request_stop(reason)
            if self.state is ProcessState.STOPPED:
                return self.state
            if not self.state_changed.wait_for(
                lambda: self._stops > stops or self.state is ProcessState.EXITED,
                timeout=timeout,
            ):
                raise InvalidProcessStateError(
                    f"{self!r} did not stop within {timeout}s"
                )
            return self.state

    def continue_process(self) -> None:
        """Resume a STOPPED process (``tdp_continue_process`` mechanism).

        Always resumes to RUNNABLE: if the process was parked on an
        incomplete blocking syscall, the scheduler retries it and re-parks
        as needed — spurious wakeups are harmless by design.
        """
        with self.state_changed:
            if self.state is ProcessState.EXITED:
                raise InvalidProcessStateError(f"{self!r} has exited")
            if self.state is not ProcessState.STOPPED:
                raise InvalidProcessStateError(
                    f"continue on {self.state.value} process {self!r}"
                )
            self._stop_requested = None
            self.stop_reason = None
            self._set_state(ProcessState.RUNNABLE, None)
        self.host.scheduler_notify()

    def unblock(self) -> None:
        """Wake a BLOCKED process so the scheduler retries its syscall."""
        with self.state_changed:
            if self.state is ProcessState.BLOCKED:
                self._set_state(ProcessState.RUNNABLE, None)
        self.host.scheduler_notify()

    def attach(self, tracer: str) -> None:
        """Attach a tracer: register it and stop the process.

        Paper Section 2.2 case 3: "(1) obtain control of the application
        …; (2) pause the application".  Double-attach is an error (one
        controlling tracer, like ptrace).
        """
        with self.state_changed:
            if self.state is ProcessState.EXITED:
                raise AttachError(f"cannot attach to exited process {self!r}")
            if self.tracer is not None:
                raise AttachError(
                    f"{self!r} already traced by {self.tracer!r}"
                )
            self.tracer = tracer
        self.request_stop(StopReason.TRACER)

    def detach(self, *, resume: bool = True) -> None:
        """Drop the tracer and the probes it inserted; by default let the
        process run on, past any stop the tracer asked for."""
        with self.state_changed:
            if self.tracer is None:
                raise AttachError(f"{self!r} has no tracer")
            self.tracer = None
            self.probes.clear()
            if resume and self.state is ProcessState.STOPPED:
                self._stop_requested = None
                self.stop_reason = None
                self._set_state(ProcessState.RUNNABLE, None)
            elif resume and self._stop_requested in (StopReason.TRACER, StopReason.BREAKPOINT):
                self._stop_requested = None
        self.host.scheduler_notify()

    def terminate(self, signal: int = 15) -> None:
        """Kill the process (SIGTERM/SIGKILL semantics: immediate exit)."""
        with self.state_changed:
            if self.state is ProcessState.EXITED:
                return
            self.exit_signal = signal
            self._finish(exit_code=128 + signal)
        self._run_exit_listeners()

    def deliver_signal(self, signal: int) -> None:
        """Minimal signal model: STOP(19), CONT(18), TERM(15), KILL(9)."""
        if signal == 19:  # SIGSTOP
            self.request_stop(StopReason.SIGNAL)
        elif signal == 18:  # SIGCONT
            with self.lock:
                stopped = self.state is ProcessState.STOPPED
            if stopped:
                self.continue_process()
        elif signal in (9, 15):
            self.terminate(signal)
        else:
            raise ValueError(f"unsupported signal {signal}")

    # -- instrumentation (used by the dyninst engine) ----------------------------

    def insert_probe(self, probe: ProbePoint) -> None:
        with self.lock:
            if self.state is ProcessState.EXITED:
                raise InvalidProcessStateError(f"{self!r} has exited")
            self.probes.setdefault((probe.function, probe.where), []).append(probe)

    def stop_at_probe(self, probe_id: int) -> None:
        """A breakpoint's stop, unless its probe went (its tracer
        detached) between the probe's firing and this request."""
        with self.lock:
            if any(p.probe_id == probe_id for ps in self.probes.values() for p in ps):
                self.request_stop(StopReason.BREAKPOINT)

    def remove_probe(self, probe_id: int) -> bool:
        with self.lock:
            for key, plist in list(self.probes.items()):
                for i, p in enumerate(plist):
                    if p.probe_id == probe_id:
                        del plist[i]
                        if not plist:
                            del self.probes[key]
                        return True
            return False

    @property
    def wall_time(self) -> float:
        """Virtual wall seconds between first execution and exit (or now).

        CPU-only work keeps wall == cpu; Sleep (I/O wait) advances wall
        without CPU — the signal the Performance Consultant's why-axis
        (CPU-bound vs I/O-bound) discriminates on.
        """
        with self.lock:
            start = self.start_vtime
            end = self.end_vtime
        if start is None:
            return 0.0
        if end is None:
            end = self.host.cluster.clock.now()
        return max(0.0, end - start)

    def stack(self) -> list[str]:
        """Current function stack, outermost first (tool stack walk)."""
        with self.lock:
            return [f.name for f in self.frames]

    # -- stdio ------------------------------------------------------------------

    def feed_stdin(self, line: str) -> None:
        with self.lock:
            self.stdin_lines.append(line)
        self.unblock()

    def close_stdin(self) -> None:
        with self.lock:
            self.stdin_eof = True
        self.unblock()

    def write_stdout(self, text: str) -> None:
        # Sinks are invoked under the lock so that add_stdout_sink's
        # replay-then-register is atomic (no lost or duplicated lines).
        # Sinks must therefore be non-blocking (queue puts / buffer
        # appends), which all in-tree sinks are.
        with self.lock:
            self.stdout_lines.append(text)
            sinks = list(self.stdout_sinks)
            for sink in sinks:
                sink(text)

    def add_stdout_sink(
        self, sink: Callable[[str], None], *, replay: bool = True
    ) -> None:
        """Register a stdout forwarder (how the RM redirects job output).

        With ``replay`` (default), lines printed before registration are
        delivered first — a fast job may finish before the RM wires its
        stdio relay.
        """
        with self.lock:
            if replay:
                for line in self.stdout_lines:
                    sink(line)
            self.stdout_sinks.append(sink)

    # -- messaging ----------------------------------------------------------------

    def deliver_message(self, record: MsgRecord) -> None:
        with self.state_changed:
            if self.state is ProcessState.EXITED:
                return  # messages to the dead are dropped
            self.mailbox.append(record)
            if self.state is ProcessState.BLOCKED:
                self._set_state(ProcessState.RUNNABLE, None)
            # STOPPED processes keep the message queued; they will retry
            # the pending Recv when continued.
        self.host.scheduler_notify()

    def take_message(self, tag: str | None) -> MsgRecord | None:
        """Pop the oldest (matching) message; None if none available."""
        with self.lock:
            for i, rec in enumerate(self.mailbox):
                if tag is None or rec.tag == tag:
                    return self.mailbox.pop(i)
            return None

    # -- termination (scheduler thread / terminate) ---------------------------------

    def _finish(self, exit_code: int) -> None:
        """Transition to EXITED (caller holds the lock)."""
        # Balance any open frames so tool timers close.
        while self.frames:
            self.frames.pop()
        self.end_vtime = self.host.cluster.clock.now()
        self.exit_code = exit_code
        self.pending_syscall = None
        self._set_state(ProcessState.EXITED, None)
        try:
            self._generator.close()
        except RuntimeError:
            pass  # generator yielded in finally (call() does); acceptable
        except ValueError:
            # terminate() raced the scheduler mid-send; the scheduler
            # closes the generator when it observes the EXITED state.
            self._close_pending = True

    def _run_exit_listeners(self) -> None:
        with self.lock:
            listeners = list(self.exit_listeners)
        for listener in listeners:
            listener(self)

    def on_exit(self, listener: Callable[["SimProcess"], None]) -> None:
        """Register an exit listener; fires immediately if already exited."""
        with self.lock:
            if self.state is ProcessState.EXITED:
                already = True
            else:
                self.exit_listeners.append(listener)
                already = False
        if already:
            listener(self)

    # -- internals ----------------------------------------------------------------

    def _set_state(self, state: ProcessState, reason: StopReason | None) -> None:
        """Caller must hold the lock."""
        self.state = state
        if state is ProcessState.STOPPED:
            self.stop_reason = reason
            self._stops += 1
        self.state_changed.notify_all()
