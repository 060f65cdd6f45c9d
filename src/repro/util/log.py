"""Structured event logging.

Two consumers need run-time event records:

* Humans debugging a scenario — handled by the stdlib ``logging`` tree
  rooted at ``"repro"``.
* Protocol traces and the flight ring.  The paper's "figures" are
  protocol traces (Figs. 3 and 6 are call sequences).  One event class,
  :class:`TraceEvent`, one recorder class, :class:`TraceRecorder`, and
  one record path, :func:`record_event`, serve both: a daemon appends to
  the trace its caller passed in (if any), and to the process's bounded
  flight ring (:mod:`repro.obs.recorder`) while obs is on.
"""

from __future__ import annotations

import collections
import logging
from dataclasses import dataclass, field
from typing import Any

from repro.util.sync import tracked_lock


def get_logger(name: str) -> logging.Logger:
    """Return a logger under the library's root (``repro.<name>``)."""
    return logging.getLogger(f"repro.{name}")


@dataclass(frozen=True)
class TraceEvent:
    """One protocol event: who did what, with what details, and when.

    ``seq`` is a recorder-global sequence number so cross-daemon ordering
    is well-defined even when timestamps tie.
    """

    seq: int
    time: float
    actor: str
    action: str
    details: dict[str, Any] = field(default_factory=dict)

    def matches(self, actor: str | None = None, action: str | None = None) -> bool:
        return (actor is None or self.actor == actor) and (
            action is None or self.action == action
        )

    def to_dict(self) -> dict[str, Any]:
        """The JSON-lines record: ``seq``, ``ts``, ``kind``, ``actor``,
        then the details."""
        return {
            "seq": self.seq,
            "ts": round(self.time, 9),
            "kind": self.action,
            "actor": self.actor,
            **self.details,
        }

    def __str__(self) -> str:
        det = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{self.seq:5d}] {self.time:14.6f} {self.actor:<18} {self.action:<26} {det}"


class TraceRecorder:
    """Thread-safe ordered recorder of :class:`TraceEvent` objects.

    Unbounded by default: a scenario's trace keeps every event, and the
    benches for Figures 3 and 6 assert the exact sequences the paper
    draws.  With ``capacity`` it is a ring that keeps the latest
    ``capacity`` events (the process's flight ring).
    """

    def __init__(self, clock=None, capacity: int | None = None):
        from repro.util.clock import WallClock

        self._clock = clock if clock is not None else WallClock()
        self._events: collections.deque[TraceEvent] = collections.deque(maxlen=capacity)
        self._lock = tracked_lock("util.log.TraceRecorder._lock")
        # (every daemon thread records: declared, as the static pass sees
        # too few of them to infer it)
        # tdp-guard: _seq -> util.log.TraceRecorder._lock
        self._seq = 0

    def record(self, actor: str, action: str, /, **details: Any) -> TraceEvent:
        """Append one event and return it."""
        # Read the clock before the hold: a VirtualClock's read takes its
        # own lock, ranked below this one.
        now = self._clock.now()
        with self._lock:
            self._seq += 1
            ev = TraceEvent(self._seq, now, actor, action, details)
            self._events.append(ev)
        return ev

    def events(
        self, actor: str | None = None, action: str | None = None
    ) -> list[TraceEvent]:
        """Snapshot of events, optionally filtered by actor and/or action."""
        with self._lock:
            evs = list(self._events)
        return [e for e in evs if e.matches(actor, action)]

    def tail(self, n: int) -> list[TraceEvent]:
        """The latest ``n`` events."""
        return self.events()[-n:]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    def actions(self, actor: str | None = None) -> list[str]:
        """Just the action names, in order (the shape Figures 3/6 show)."""
        return [e.action for e in self.events(actor=actor)]

    def first(self, action: str) -> TraceEvent | None:
        for e in self.events():
            if e.action == action:
                return e
        return None

    def index_of(self, action: str, actor: str | None = None) -> int:
        """Sequence number of the first matching event; -1 if absent."""
        for e in self.events(actor=actor):
            if e.action == action:
                return e.seq
        return -1

    def assert_order(self, *actions: str) -> None:
        """Assert the given actions occur in this relative order.

        Other events may interleave; only the relative order of the named
        actions is checked.  Raises ``AssertionError`` with a readable
        diff otherwise.
        """
        seqs = []
        for a in actions:
            idx = self.index_of(a)
            if idx < 0:
                raise AssertionError(f"action {a!r} never occurred.\n{self.format()}")
            seqs.append(idx)
        if seqs != sorted(seqs):
            raise AssertionError(
                "actions out of order: "
                + ", ".join(f"{a}@{s}" for a, s in zip(actions, seqs))
                + "\n"
                + self.format()
            )

    def format(self, title: str | None = None) -> str:
        """Human-readable rendering of the whole trace."""
        lines = []
        if title:
            lines.append(title)
            lines.append("-" * len(title))
        lines.extend(str(e) for e in self.events())
        return "\n".join(lines)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


def record_event(
    trace: TraceRecorder | None, actor: str, action: str, /, **details: Any
) -> None:
    """The one record path for a protocol event.

    Appends to ``trace`` when the caller keeps one, and to the flight
    ring while obs is on; with neither, no event is built.
    """
    if trace is not None:
        trace.record(actor, action, **details)
    # Imported here: repro.obs builds its ring from this module.
    from repro import obs

    obs.record(action, actor, **details)
