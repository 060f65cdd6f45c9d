"""The simulation kernel: syscall interpreter + round-robin scheduler.

One scheduler thread drives every process in a cluster with round-robin
time slices, advancing a shared :class:`~repro.util.clock.VirtualClock`
by the virtual CPU cost each process consumes.  Real threads (the RM and
RT daemons) interact with processes purely through the state machine in
:mod:`repro.sim.process` — they never run program code — so the blocking
TDP API composes naturally with the simulation.

Determinism: a single scheduler thread, fixed registration order, and a
virtual clock mean CPU attribution (and therefore the Paradyn metric
values) are reproducible run to run; only interleavings with external
daemon threads vary, and those are synchronized through explicit state
waits, never timing.
"""

from __future__ import annotations

import threading
import traceback
from typing import TYPE_CHECKING, Any

from repro import obs
from repro.errors import NoSuchProcessError, SimulationError, TdpError
from repro.sim.process import ProcessState, SimProcess, StopReason
from repro.sim import syscalls as sc
from repro.util.clock import VirtualClock
from repro.util.log import get_logger
from repro.util.sync import tracked_lock
from repro.util.threads import spawn

if TYPE_CHECKING:
    from repro.sim.cluster import SimCluster

_log = get_logger("sim.kernel")

#: virtual seconds charged for any syscall (keeps zero-cost loops finite
#: in virtual time and gives message ping-pongs a nonzero duration)
SYSCALL_COST = 1e-6


class Scheduler:
    """Round-robin scheduler over all processes of one cluster."""

    #: virtual seconds of CPU one slice may consume before rotating
    QUANTUM = 0.05
    #: hard bound on syscalls per slice (latency bound for control ops)
    MAX_SYSCALLS_PER_SLICE = 500

    def __init__(self, cluster: "SimCluster", clock: VirtualClock):
        self._cluster = cluster
        self.clock = clock
        self._procs: list[SimProcess] = []
        self._lock = tracked_lock("sim.kernel.Scheduler._lock")
        self._wake = threading.Event()
        # tdp-guard: _stop -> volatile
        # (monotonic stop latch: set once by stop(), polled by the loop)
        self._stop = False
        self._thread: threading.Thread | None = None
        self.slices_executed = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = spawn(self._loop, name="sim-scheduler")

    def stop(self) -> None:
        self._stop = True
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            if self._thread.is_alive():
                raise SimulationError("scheduler thread did not exit")
            self._thread = None

    def register(self, proc: SimProcess) -> None:
        with self._lock:
            self._procs.append(proc)
        self.notify()

    def notify(self) -> None:
        """Wake the scheduler (a process became runnable / got input)."""
        self._wake.set()

    def processes(self) -> list[SimProcess]:
        with self._lock:
            return list(self._procs)

    # -- main loop -------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop:
            progressed = self._run_pass()
            if self._stop:
                return
            self._reap()
            if progressed:
                continue
            # Nothing runnable: maybe time needs to pass for sleepers.
            if self._advance_to_next_sleeper():
                continue
            # Genuinely idle: whoever makes a process runnable notifies.
            self._wake.wait()
            self._wake.clear()

    def _run_pass(self) -> bool:
        """Give each runnable process one slice; True if any ran.  Its own
        frame, so a parked scheduler holds none of the processes it ran."""
        progressed = False
        for proc in self.processes():
            if self._stop:
                break
            with proc.lock:
                runnable = proc.state is ProcessState.RUNNABLE
            if runnable:
                self._slice(proc)
                progressed = True
        return progressed

    def _reap(self) -> None:
        # Classify under each process lock first: taking p.lock (rank
        # 42) inside self._lock (rank 46) would invert the declared
        # order.  EXITED is terminal, so the two-phase split is safe —
        # a process that exits between the phases is reaped next round.
        dead = []
        for p in self.processes():
            with p.lock:
                if p.state is ProcessState.EXITED:
                    dead.append(p)
        if dead:
            gone = {id(p) for p in dead}
            with self._lock:
                self._procs = [p for p in self._procs if id(p) not in gone]
        for p in dead:
            with p.lock:
                if p._close_pending:
                    p._close_pending = False
                    try:
                        p._generator.close()
                    except (RuntimeError, ValueError):
                        pass

    def _advance_to_next_sleeper(self) -> bool:
        deadlines = []
        for p in self.processes():
            with p.lock:
                if (
                    p.state is ProcessState.BLOCKED
                    and p._sleep_until is not None
                ):
                    deadlines.append(p._sleep_until)
        if not deadlines:
            return False
        self.clock.advance_to(min(deadlines))
        woke = False
        for p in self.processes():
            with p.state_changed:
                until = p._sleep_until
                if (
                    until is not None
                    and p.state is ProcessState.BLOCKED
                    and self.clock.now() >= until
                ):
                    p._set_state(ProcessState.RUNNABLE, None)
                    woke = True
        return woke

    # -- one scheduling slice -----------------------------------------------------

    def _slice(self, proc: SimProcess) -> None:
        """Run ``proc`` for up to one quantum of virtual CPU."""
        self.slices_executed += 1
        if obs.enabled():
            obs.registry().counter("sim.slices").increment()
        budget = self.QUANTUM
        steps = 0
        while budget > 0 and steps < self.MAX_SYSCALLS_PER_SLICE:
            steps += 1
            # Honor stop requests at syscall boundaries.
            with proc.state_changed:
                if proc.state is not ProcessState.RUNNABLE:
                    return
                if proc._stop_requested is not None:
                    reason = proc._stop_requested
                    proc._stop_requested = None
                    proc._set_state(ProcessState.STOPPED, reason)
                    return
            cost = self._execute_one(proc)
            if cost is None:
                return  # blocked, stopped, or exited
            budget -= cost

    def _execute_one(self, proc: SimProcess) -> float | None:
        """Advance ``proc`` by one syscall.

        Returns the virtual cost consumed, or ``None`` when the process
        can make no further progress right now.
        """
        syscall = proc.pending_syscall
        if syscall is None:
            try:
                if not proc._started:
                    proc._started = True
                    proc.start_vtime = self.clock.now()
                    syscall = next(proc._generator)
                else:
                    syscall = proc._generator.send(proc._last_result)
            except StopIteration as stop:
                code = stop.value if isinstance(stop.value, int) else 0
                with proc.lock:
                    if proc.state is ProcessState.EXITED:
                        # terminate() closed the generator between the
                        # slice's RUNNABLE check and this step: its exit
                        # code stands, its listeners have run.
                        return None
                    proc._finish(exit_code=code)
                obs.record(
                    "proc.exit", actor="sim", pid=proc.pid,
                    exit_code=code, vtime=self.clock.now(),
                )
                proc._run_exit_listeners()
                return None
            except Exception:  # noqa: BLE001 — program crash becomes a fault
                with proc.lock:
                    proc.fault = traceback.format_exc(limit=5)
                    proc._finish(exit_code=139)
                obs.record(
                    "proc.fault", actor="sim", pid=proc.pid,
                    vtime=self.clock.now(),
                )
                _log.warning("program fault in %r:\n%s", proc, proc.fault)
                proc._run_exit_listeners()
                return None
            # terminate() may have fired while we were inside gen.send();
            # honor the death before executing the yielded syscall, and
            # finish the generator close the terminator could not do.
            with proc.lock:
                if proc.state is ProcessState.EXITED:
                    if proc._close_pending:
                        proc._close_pending = False
                        try:
                            proc._generator.close()
                        except (RuntimeError, ValueError):
                            pass
                    return None
            if not isinstance(syscall, sc.SysCall):
                with proc.lock:
                    proc.fault = f"program yielded non-syscall {syscall!r}"
                    proc._finish(exit_code=139)
                proc._run_exit_listeners()
                return None
            proc.pending_syscall = syscall

        # Blocking-capable syscalls: evaluate-and-park atomically with the
        # process lock, so a concurrent deliver/feed cannot slip between
        # the emptiness check and the BLOCKED transition.  Only the narrow
        # _try_blocking_syscall runs under the lock — it touches nothing
        # but this process and the clock, keeping the lock hierarchy flat
        # (routing a SendMsg to a peer process must not happen while
        # holding the sender's lock).
        try:
            if isinstance(syscall, (sc.ReadLine, sc.RecvMsg, sc.Sleep)):
                with proc.state_changed:
                    done, result, cost = self._try_blocking_syscall(proc, syscall)
                    if not done:
                        if proc.state is ProcessState.RUNNABLE:
                            proc._set_state(ProcessState.BLOCKED, None)
                        return None
            else:
                done, result, cost = self._try_syscall(proc, syscall)
                assert done, f"non-blocking syscall reported blocked: {syscall!r}"
        except TdpError as e:
            # A bad syscall (unknown host, unknown service, service-level
            # error) crashes the *program*, never the scheduler.
            with proc.lock:
                proc.fault = str(e)
                proc._finish(exit_code=139)
            obs.record(
                "proc.fault", actor="sim", pid=proc.pid,
                reason=str(e), vtime=self.clock.now(),
            )
            _log.warning("syscall fault in %r: %s", proc, e)
            proc._run_exit_listeners()
            return None
        with proc.lock:
            exited = proc.state is ProcessState.EXITED
        if exited:
            return None
        proc.pending_syscall = None
        proc._last_result = result
        if obs.enabled():
            obs.registry().counter("sim.syscalls").increment()
        total = cost + SYSCALL_COST
        with proc.lock:
            proc.cpu_time += total
        self.clock.advance(total)
        return total

    # -- individual syscalls --------------------------------------------------------

    def _try_blocking_syscall(
        self, proc: SimProcess, syscall: sc.SysCall
    ) -> tuple[bool, Any, float]:
        """Attempt a blocking-capable syscall (ReadLine/RecvMsg/Sleep).

        The caller holds ``proc.state_changed``; everything here must
        stay within this process (plus the leaf clock lock) so the
        evaluate-and-park critical section never reaches into another
        daemon's locks.
        """
        if isinstance(syscall, sc.ReadLine):
            with proc.lock:
                if proc.stdin_lines:
                    return True, proc.stdin_lines.pop(0), 0.0
                if proc.stdin_eof:
                    return True, None, 0.0
            return False, None, 0.0

        if isinstance(syscall, sc.RecvMsg):
            record = proc.take_message(syscall.tag)
            if record is None:
                return False, None, 0.0
            return True, record, 0.0

        if isinstance(syscall, sc.Sleep):
            until = getattr(proc, "_sleep_until", None)
            if until is None:
                proc._sleep_until = self.clock.now() + syscall.seconds  # type: ignore[attr-defined]
                if syscall.seconds > 0:
                    return False, None, 0.0
                until = proc._sleep_until  # type: ignore[attr-defined]
            if self.clock.now() >= until:
                proc._sleep_until = None  # type: ignore[attr-defined]
                return True, None, 0.0
            return False, None, 0.0

        raise AssertionError(f"not a blocking-capable syscall: {syscall!r}")

    def _try_syscall(
        self, proc: SimProcess, syscall: sc.SysCall
    ) -> tuple[bool, Any, float]:
        """Attempt one syscall: (completed?, result, extra_cost)."""
        if isinstance(syscall, (sc.ReadLine, sc.RecvMsg, sc.Sleep)):
            return self._try_blocking_syscall(proc, syscall)

        if isinstance(syscall, sc.Compute):
            return True, None, syscall.cost

        if isinstance(syscall, sc.EnterFunction):
            from repro.sim.process import FunctionFrame

            with proc.lock:
                proc.frames.append(
                    FunctionFrame(name=syscall.name, entered_cpu=proc.cpu_time)
                )
                proc.functions_seen.add(syscall.name)
                probes = list(proc.probes.get((syscall.name, "entry"), ()))
            for probe in probes:
                probe.action(proc, syscall.name, "entry")
            return True, None, 0.0

        if isinstance(syscall, sc.ExitFunction):
            with proc.lock:
                probes = list(proc.probes.get((syscall.name, "exit"), ()))
            for probe in probes:
                probe.action(proc, syscall.name, "exit")
            with proc.lock:
                if proc.frames and proc.frames[-1].name == syscall.name:
                    proc.frames.pop()
            return True, None, 0.0

        if isinstance(syscall, sc.Print):
            proc.write_stdout(syscall.text)
            return True, None, 0.0

        if isinstance(syscall, sc.SendMsg):
            self._cluster.route_message(proc, syscall)
            return True, None, 0.0

        if isinstance(syscall, sc.ExitProgram):
            with proc.lock:
                proc._finish(exit_code=syscall.code)
            proc._run_exit_listeners()
            return True, None, 0.0

        if isinstance(syscall, sc.GetPid):
            return True, proc.pid, 0.0

        if isinstance(syscall, sc.GetArgs):
            return True, list(proc.argv), 0.0

        if isinstance(syscall, sc.GetEnv):
            return True, proc.env.get(syscall.name), 0.0

        if isinstance(syscall, sc.Service):
            result = self._cluster.call_service(syscall.name, proc, syscall.args)
            return True, result, 0.0

        # Unknown syscall type: programming error in the program.
        with proc.lock:
            proc.fault = f"unknown syscall {syscall!r}"
            proc._finish(exit_code=139)
        proc._run_exit_listeners()
        return True, None, 0.0
