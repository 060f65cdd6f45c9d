"""Clock abstraction: wall time for real backends, virtual time for the sim.

The simulated cluster charges virtual CPU cost for each program operation
(see :mod:`repro.sim.kernel`), so performance experiments (Paradyn metrics,
bottleneck search) are deterministic.  Real-process backends and transport
latency measurements use wall time.  Code that needs "a clock" takes a
:class:`Clock` so either can be injected.

Deferred callbacks go through the same abstraction: :meth:`Clock.call_later`
arms a one-shot timer on the clock's own timebase — an entry on that
timebase's deadline heap, served by one lazily started thread.  Every
:class:`WallClock` shares one process-wide heap; each
:class:`VirtualClock` has its own, whose timers fire only when
:meth:`~VirtualClock.advance` passes them, so a scenario-clock run cannot
have wall-time timeouts firing under it.  Callbacks run one after another
on the timebase's thread with no locks held, so they must not block.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from abc import ABC, abstractmethod

from repro.util.log import get_logger
from repro.util.sync import tracked_condition

_log = get_logger("util.clock")


class TimerHandle:
    """One :meth:`Clock.call_later` registration: its entry in the
    timebase's deadline heap, and the handle that cancels it."""

    __slots__ = ("deadline", "seq", "callback", "_timers")

    def __init__(self, deadline: float, seq: int, callback, timers: "_Timers") -> None:
        self.deadline = deadline
        self.seq = seq
        #: None once the timer fired or was cancelled
        self.callback = callback
        self._timers = timers

    def __lt__(self, other: "TimerHandle") -> bool:
        return (self.deadline, self.seq) < (other.deadline, other.seq)

    def cancel(self) -> bool:
        """Idempotent; True when it prevented the callback from running
        (a callback already started cannot be recalled).  The callback
        reference is dropped at once."""
        return self._timers._cancel(self)


class _Timers:
    """One timebase's deadline heap and the lazily started thread that
    serves it.  As written the timebase is virtual: ``_now`` moves only
    when a :class:`VirtualClock` advances it, which wakes the service."""

    _thread_name = "vclock-timers"

    def __init__(self, start: float = 0.0) -> None:
        # Guards now and the heap; the service thread waits on it for
        # the head deadline.
        self._cond = tracked_condition("util.clock._Timers._cond")
        self._now = float(start)
        self._heap: list[TimerHandle] = []
        self._seq = itertools.count()
        #: cancelled entries still in the heap
        self._cancelled = 0
        self._service: threading.Thread | None = None

    def _time(self) -> float:
        """The timebase's now; called with ``_cond`` held."""
        return self._now

    def _wait_for(self, head: TimerHandle | None) -> None:
        """Park the service thread (``_cond`` held) until ``head`` may be due."""
        self._cond.wait()  # VirtualClock.advance notifies

    def call_later(self, delay: float, callback) -> TimerHandle:
        with self._cond:
            entry = TimerHandle(
                self._time() + max(0.0, float(delay)), next(self._seq), callback, self
            )
            heapq.heappush(self._heap, entry)
            if self._service is None:
                from repro.util.threads import spawn

                self._service = spawn(self._serve, name=self._thread_name)
            elif self._heap[0] is entry:
                self._cond.notify()  # a new head: the service's wait is too long
        return entry

    def _cancel(self, entry: TimerHandle) -> bool:
        with self._cond:
            if entry.callback is None:
                return False
            entry.callback = None
            self._cancelled += 1
            if 2 * self._cancelled > len(self._heap):
                # Most of the heap is dead weight (timeouts satisfied
                # early): rebuild it, as asyncio's event loop does.
                self._heap = [e for e in self._heap if e.callback is not None]
                heapq.heapify(self._heap)
                self._cancelled = 0
            return True

    def _serve(self) -> None:
        """Timer-service loop: pop due timers, run their callbacks.

        Runs forever (daemon thread); parked on the condition whenever
        nothing is due, so an idle timebase costs nothing.
        """
        while True:
            with self._cond:
                while True:
                    heap = self._heap
                    if heap and heap[0].callback is None:
                        heapq.heappop(heap)
                        self._cancelled -= 1
                    elif heap and heap[0].deadline <= self._time():
                        entry = heapq.heappop(heap)
                        callback, entry.callback = entry.callback, None
                        break
                    else:
                        self._wait_for(heap[0] if heap else None)
            try:
                callback()
            except Exception:  # noqa: BLE001 — one callback must not kill the timebase
                _log.exception("timer callback %r failed", callback)
            del callback  # a fired timer keeps nothing alive


class _WallTimers(_Timers):
    """The process-wide wall-time heap every :class:`WallClock` shares."""

    _thread_name = "wall-timers"

    def _time(self) -> float:
        return time.monotonic()

    def _wait_for(self, head: TimerHandle | None) -> None:
        self._cond.wait(None if head is None else head.deadline - time.monotonic())


_WALL_TIMERS = _WallTimers()


class Clock(ABC):
    """Minimal clock interface: a monotonically non-decreasing ``now()``."""

    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (epoch is clock-specific)."""

    def elapsed_since(self, t0: float) -> float:
        """Seconds elapsed since a previous ``now()`` reading."""
        return self.now() - t0

    def call_later(self, delay: float, callback) -> TimerHandle:
        """Run ``callback()`` once ``delay`` seconds of *this clock's*
        time have passed; returns a :class:`TimerHandle`."""
        raise NotImplementedError(f"{type(self).__name__} has no timer support")


class WallClock(Clock):
    """Real monotonic wall-clock time."""

    def now(self) -> float:
        return time.monotonic()

    def call_later(self, delay: float, callback) -> TimerHandle:
        return _WALL_TIMERS.call_later(delay, callback)


class VirtualClock(_Timers, Clock):
    """Virtual time advanced explicitly by the simulation kernel.

    Thread-safe: the scheduler thread advances it while daemon threads
    read it.  Time never goes backwards; ``advance`` with a negative
    delta raises ``ValueError``.

    Timers armed with :meth:`call_later` fire when an ``advance`` /
    ``advance_to`` moves ``now`` past their deadline.  Callbacks run on
    a lazily spawned timer-service thread, never on the advancing
    thread — the scheduler may advance while holding process locks, and
    a timeout callback is free to take store/connection locks.
    """

    def now(self) -> float:
        with self._cond:
            return self._now

    def advance(self, delta: float) -> float:
        """Advance virtual time by ``delta`` seconds; returns the new time."""
        if delta < 0:
            raise ValueError(f"cannot advance virtual clock by {delta!r}")
        with self._cond:
            self._now += delta
            if self._heap:
                self._cond.notify_all()
            return self._now

    def advance_to(self, t: float) -> float:
        """Advance to absolute time ``t`` if it is in the future."""
        with self._cond:
            if t > self._now:
                self._now = t
                if self._heap:
                    self._cond.notify_all()
            return self._now


def deadline_after(timeout: float | None) -> float | None:
    """The wall-clock moment ``timeout`` seconds from now (None: never)."""
    return None if timeout is None else time.monotonic() + timeout


def time_left(deadline: float | None) -> float | None:
    """Seconds until a :func:`deadline_after` moment, never negative
    (None: no bound)."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


class StopwatchResult:
    """Mutable elapsed-time holder filled in when a Stopwatch exits."""

    def __init__(self) -> None:
        self.seconds: float = 0.0

    def __repr__(self) -> str:
        return f"StopwatchResult({self.seconds:.6f}s)"


class Stopwatch:
    """Context manager measuring elapsed time on a given clock.

    >>> clock = WallClock()
    >>> with Stopwatch(clock) as sw:
    ...     pass
    >>> sw.seconds >= 0.0
    True
    """

    def __init__(self, clock: Clock | None = None):
        self._clock = clock if clock is not None else WallClock()
        self._t0 = 0.0
        self.seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._t0 = self._clock.now()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = self._clock.now() - self._t0
