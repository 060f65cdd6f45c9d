"""Dyninst-like dynamic instrumentation engine.

Inserts and removes probes in a *running* (or stopped) simulated process
at function entry/exit points — the run-time code patching capability
Paradyn is built on.  Three probe kinds cover what the tool needs:

* **counters** — how many times a point was reached;
* **timers** — inclusive CPU time of a function (entry/exit pair);
* **breakpoints** — stop the process when a point is reached (how
  paradynd runs the application "until the beginning of main").

All probe state is engine-side; the process only carries the probe
callbacks, so removing instrumentation really removes the overhead —
the property Paradyn's design stresses.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.errors import InstrumentationError, InvalidProcessStateError
from repro.sim.process import ProbePoint, ProcessState, SimProcess
from repro.util.ids import IdAllocator


@dataclass
class CounterHandle:
    probe_id: int
    function: str
    where: str

    def __post_init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    def increment(self) -> None:
        with self._lock:
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count


@dataclass
class TimerHandle:
    entry_probe_id: int
    exit_probe_id: int
    function: str

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._accumulated = 0.0
        self._accumulated_wall = 0.0
        #: stacks for recursion safety: (cpu_at_entry, wall_at_entry)
        self._entry_marks: list[tuple[float, float]] = []
        self._calls = 0

    def on_entry(self, cpu_now: float, wall_now: float = 0.0) -> None:
        with self._lock:
            self._entry_marks.append((cpu_now, wall_now))

    def on_exit(self, cpu_now: float, wall_now: float = 0.0) -> None:
        with self._lock:
            if not self._entry_marks:
                return  # attached mid-call: ignore the unmatched exit
            cpu_start, wall_start = self._entry_marks.pop()
            self._accumulated += cpu_now - cpu_start
            self._accumulated_wall += wall_now - wall_start
            self._calls += 1

    @property
    def inclusive_cpu(self) -> float:
        """CPU seconds spent inside the function (completed calls)."""
        with self._lock:
            return self._accumulated

    @property
    def inclusive_wall(self) -> float:
        """Wall (virtual) seconds inside the function; the excess over
        :attr:`inclusive_cpu` is blocked/waiting time."""
        with self._lock:
            return self._accumulated_wall

    @property
    def calls(self) -> int:
        with self._lock:
            return self._calls


@dataclass
class BreakpointHandle:
    probe_id: int
    function: str
    where: str
    process: SimProcess

    def __post_init__(self) -> None:
        self.hit_event = threading.Event()
        self.hits = 0

    def wait_hit(self, timeout: float | None = None) -> bool:
        """Block until the breakpoint fired *and* its stop took effect,
        or the process died first.

        The probe action only requests the stop — the scheduler parks a
        RUNNABLE process at its next syscall boundary — so a waiter
        released on the event alone could issue a continue before the
        process is STOPPED and be refused, leaving it parked for good.
        """
        if not self.hit_event.wait(timeout):
            return False
        try:  # the stop is one scheduler step behind the hit
            self.process.wait_for_state(
                ProcessState.STOPPED, ProcessState.EXITED, timeout=timeout
            )
        except InvalidProcessStateError:
            return False
        return True


class DyninstEngine:
    """Instrumentation session on one target process."""

    def __init__(self, process: SimProcess):
        self._process = process
        self._ids = IdAllocator()
        self._owned: set[int] = set()
        self._lock = threading.Lock()

    @property
    def process(self) -> SimProcess:
        return self._process

    # -- probe insertion ---------------------------------------------------------

    def insert_counter(self, function: str, where: str = "entry") -> CounterHandle:
        if where not in ("entry", "exit"):
            raise InstrumentationError(f"bad probe location {where!r}")
        handle = CounterHandle(self._ids.next(), function, where)

        def action(_proc: SimProcess, _func: str, _where: str) -> None:
            handle.increment()

        self._insert(ProbePoint(handle.probe_id, function, where, action))
        return handle

    def insert_timer(self, function: str) -> TimerHandle:
        entry_id = self._ids.next()
        exit_id = self._ids.next()
        handle = TimerHandle(entry_id, exit_id, function)

        def on_entry(proc: SimProcess, _func: str, _where: str) -> None:
            handle.on_entry(proc.cpu_time, proc.host.cluster.clock.now())

        def on_exit(proc: SimProcess, _func: str, _where: str) -> None:
            handle.on_exit(proc.cpu_time, proc.host.cluster.clock.now())

        self._insert(ProbePoint(entry_id, function, "entry", on_entry))
        try:
            self._insert(ProbePoint(exit_id, function, "exit", on_exit))
        except InstrumentationError:
            self._remove_id(entry_id)
            raise
        return handle

    def insert_breakpoint(self, function: str, where: str = "entry") -> BreakpointHandle:
        if where not in ("entry", "exit"):
            raise InstrumentationError(f"bad probe location {where!r}")
        handle = BreakpointHandle(self._ids.next(), function, where, self._process)

        def action(proc: SimProcess, _func: str, _where: str) -> None:
            handle.hits += 1
            handle.hit_event.set()
            proc.stop_at_probe(handle.probe_id)

        self._insert(ProbePoint(handle.probe_id, function, where, action))
        # A process killed short of the breakpoint releases the waiter
        # too: wait_hit then finds it EXITED.
        self._process.on_exit(lambda _proc: handle.hit_event.set())
        return handle

    def _insert(self, probe: ProbePoint) -> None:
        try:
            self._process.insert_probe(probe)
        except Exception as e:
            raise InstrumentationError(
                f"cannot instrument {probe.function}:{probe.where}: {e}"
            ) from e
        with self._lock:
            self._owned.add(probe.probe_id)

    # -- probe removal -------------------------------------------------------------

    def remove(self, handle: CounterHandle | TimerHandle | BreakpointHandle) -> None:
        """Remove a probe (both probes for a timer)."""
        if isinstance(handle, TimerHandle):
            self._remove_id(handle.entry_probe_id)
            self._remove_id(handle.exit_probe_id)
        else:
            self._remove_id(handle.probe_id)

    def _remove_id(self, probe_id: int) -> None:
        self._process.remove_probe(probe_id)
        with self._lock:
            self._owned.discard(probe_id)

    def remove_all(self) -> None:
        with self._lock:
            ids = list(self._owned)
            self._owned.clear()
        for probe_id in ids:
            self._process.remove_probe(probe_id)

    @property
    def active_probe_count(self) -> int:
        with self._lock:
            return len(self._owned)
