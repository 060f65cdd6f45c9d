"""Synchronization helpers shared by daemons, servers, and the sim kernel.

The library is deliberately thread-based (daemons are threads, simulated
application processes run on a scheduler thread), so correctness rests on
a small set of audited primitives rather than ad-hoc sleeps:

* :class:`Latch` — a one-shot level-triggered gate with a payload.
* :class:`WaitableQueue` — an unbounded FIFO whose ``close()`` wakes
  blocked readers, used for channel receive queues and event queues.

Both park a waiting thread in one C-level ``acquire`` of a raw lock, its
gate, which the thread that makes the wait worth ending releases: every
in-memory frame, reply and event crosses threads without a
``threading.Condition`` in between.

It also hosts the **runtime lockset witness** — the dynamic half of the
concurrency sanitizer.  Daemons create their locks through
:func:`tracked_lock` / :func:`tracked_rlock` / :func:`tracked_condition`,
naming them with the ``module.Class.attr`` keys of
:mod:`repro.analysis.lockorder`.  With ``TDP_SANITIZE`` unset the
factories return *plain* ``threading`` primitives — zero wrapper, zero
per-acquire overhead.  With ``TDP_SANITIZE=1`` they return
:class:`TrackedLock`/:class:`TrackedRLock` wrappers that keep a
per-thread lockset and raise :class:`~repro.errors.LockOrderError` the
moment any thread acquires out of rank order, touches an undeclared
lock, or blocks in :func:`witness_blocking` while holding a lock the
hierarchy does not sanction holding across blocking calls.  The static
lint passes check the same hierarchy from the AST, so each side
cross-checks the other.

The **field-access witness** is the same bargain for guarded state:
:func:`arm_guard_witness` reads the committed guard manifest
(``guards.lock.json``, the artifact of ``python -m repro guards``) and
wraps each witnessed field in a :class:`GuardedField` descriptor that
raises :class:`~repro.errors.GuardViolationError` on any
post-construction access made without the declared guard in the calling
thread's lockset — the dynamic half of the static
``guarded-field-unlocked`` pass.
"""

from __future__ import annotations

import _thread
import collections
import os
import threading
import time
from typing import Any, Generic, Iterable, TypeVar

from repro.errors import (
    ChannelClosedError,
    GetTimeoutError,
    GuardViolationError,
    LockOrderError,
)

T = TypeVar("T")


# ---------------------------------------------------------------------------
# runtime lockset witness (the dynamic half of the concurrency sanitizer)

_sanitize = os.environ.get("TDP_SANITIZE", "") not in ("", "0")


def sanitize_enabled() -> bool:
    """Is the lockset witness active (``TDP_SANITIZE=1``)?"""
    return _sanitize


def set_sanitize(enabled: bool) -> None:
    """Toggle the witness (tests; conftest honors the environment).

    Only locks created *after* enabling are tracked — the factories
    decide between plain and wrapped primitives at construction time.
    """
    global _sanitize
    _sanitize = bool(enabled)


def _hierarchy():
    # Imported lazily: the util layer must not pull the analysis package
    # in on the plain (sanitizer-off) path.
    from repro.analysis import lockorder

    return lockorder.active()


class _Lockset(threading.local):
    """Per-thread stack of (lock key, lock identity) currently held."""

    def __init__(self) -> None:
        self.held: list[tuple[str, int]] = []


_lockset = _Lockset()


def held_lock_keys() -> list[str]:
    """Keys the calling thread holds right now (diagnostics/tests)."""
    return [key for key, _ in _lockset.held]


def _witness_acquire(key: str) -> None:
    """Raise unless the calling thread may acquire ``key`` now."""
    hierarchy = _hierarchy()
    if not hierarchy.declared(key):
        raise LockOrderError(
            f"acquisition of lock {key!r} which is not declared in the "
            f"lockorder manifest (repro/analysis/lockorder.py)"
        )
    for held_key, _ in _lockset.held:
        if not hierarchy.may_acquire(held_key, key):
            raise LockOrderError(
                f"lock-order violation: acquiring {key} (rank "
                f"{hierarchy.rank(key)}) while holding {held_key} (rank "
                f"{hierarchy.rank(held_key)}); declared order requires "
                f"strictly increasing ranks"
            )


def _witness_push(key: str, lock_id: int) -> None:
    _lockset.held.append((key, lock_id))


def _witness_pop(key: str, lock_id: int) -> None:
    # Search from the top: releases need not mirror acquisition order.
    held = _lockset.held
    for i in range(len(held) - 1, -1, -1):
        if held[i] == (key, lock_id):
            del held[i]
            return


def witness_blocking(operation: str) -> None:
    """Flag a blocking call made while holding a non-exempt lock.

    Blocking primitives (latch waits, queue gets) call this on entry;
    locks declared ``blocking_ok`` in the hierarchy (audited frame-send
    locks) are exempt.  No-op unless the witness is active.
    """
    if not _sanitize or not _lockset.held:
        return
    hierarchy = _hierarchy()
    offenders = [
        key for key, _ in _lockset.held if not hierarchy.blocking_ok(key)
    ]
    if offenders:
        raise LockOrderError(
            f"blocking call {operation!r} while holding {offenders}; "
            f"holding a lock across a blocking call is only sanctioned "
            f"for blocking_ok locks in the lockorder manifest"
        )


class TrackedLock:
    """A named, witness-checked ``threading.Lock``.

    Implements ``_is_owned`` so it can back a ``threading.Condition``;
    wait/notify then route release/acquire through the witness too.
    """

    def __init__(self, key: str):
        self.key = key
        self._inner = threading.Lock()
        # tdp-guard: _owner -> volatile
        # (owner stamp trusted only when it equals the reader's own
        # thread id; a cross-thread read sees None or a foreign id,
        # both of which _is_owned correctly reports as "not mine")
        self._owner: int | None = None

    def __repr__(self) -> str:
        return f"<TrackedLock {self.key} locked={self._inner.locked()}>"

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        _witness_acquire(self.key)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._owner = threading.get_ident()
            _witness_push(self.key, id(self))
        return ok

    def release(self) -> None:
        self._owner = None
        _witness_pop(self.key, id(self))
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def _is_owned(self) -> bool:
        return self._owner == threading.get_ident()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()


class TrackedRLock:
    """A named, witness-checked ``threading.RLock``.

    Only the outermost acquire is order-checked (re-entry is sanctioned
    for RLOCK-kind keys by definition); the witness entry lives for the
    whole ownership span.  ``_release_save``/``_acquire_restore`` keep
    ``threading.Condition`` compatibility: a wait fully releases the
    lock (witness entry popped), and the wake re-acquire restores it
    without an order re-check against locks taken while parked.
    """

    def __init__(self, key: str):
        self.key = key
        self._inner = threading.RLock()
        # tdp-guard: _count -> volatile
        # (mutated only while the mutating thread owns _inner; __repr__
        # reads it racily for diagnostics)
        self._count = 0

    def __repr__(self) -> str:
        return f"<TrackedRLock {self.key} count={self._count}>"

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        first = not self._inner._is_owned()
        if first:
            _witness_acquire(self.key)
        ok = self._inner.acquire(blocking, timeout)
        if ok:
            self._count += 1
            if first:
                _witness_push(self.key, id(self))
        return ok

    def release(self) -> None:
        self._count -= 1
        if self._count == 0:
            _witness_pop(self.key, id(self))
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    # -- threading.Condition protocol ----------------------------------
    def _release_save(self):
        count = self._count
        self._count = 0
        _witness_pop(self.key, id(self))
        return count, self._inner._release_save()

    def _acquire_restore(self, saved) -> None:
        count, inner_state = saved
        self._inner._acquire_restore(inner_state)
        self._count = count
        _witness_push(self.key, id(self))

    def _is_owned(self) -> bool:
        return self._inner._is_owned()


def tracked_lock(key: str) -> "threading.Lock | TrackedLock":
    """A mutex named ``key`` in the lock hierarchy.

    Plain ``threading.Lock`` when the sanitizer is off (zero overhead);
    a :class:`TrackedLock` under ``TDP_SANITIZE=1``.
    """
    return TrackedLock(key) if _sanitize else threading.Lock()


def tracked_rlock(key: str) -> "threading.RLock | TrackedRLock":
    """Re-entrant variant of :func:`tracked_lock` (RLOCK-kind keys)."""
    return TrackedRLock(key) if _sanitize else threading.RLock()


def tracked_condition(key: str, lock: Any = None) -> threading.Condition:
    """A condition variable whose underlying lock is witness-checked.

    With ``lock`` (an already-tracked lock) the condition *aliases* that
    lock — the ``Condition(self.lock)`` pattern — and ``key`` is the
    shared name.  Without it, the condition owns a fresh lock named
    ``key``.
    """
    if lock is None and _sanitize:
        lock = TrackedLock(key)
    return threading.Condition(lock)


# ---------------------------------------------------------------------------
# runtime field-access witness (the dynamic half of the guarded-by checker)

#: instance-dict flag set by the wrapped constructor once construction
#: finishes; unarmed instances (mid-construction, or subclasses with
#: their own __init__) are never checked
_GUARD_ARMED = "_tdp_guard_armed"

_MISSING = object()

#: class -> (saved class-dict entries, original __init__); install
#: registry so uninstall/disarm can restore the class exactly
_witnessed_classes: dict[type, tuple[dict[str, Any], Any]] = {}


class GuardedField:
    """Data descriptor enforcing a field's declared guard at runtime.

    Installed by :func:`install_guard_witness` over each lock-guarded
    field of the committed guard manifest (``guards.lock.json``).  The
    value lives in the instance ``__dict__`` under the field's own name
    — exactly where a plain attribute would put it — but because a data
    descriptor shadows the instance dict, every read, write, and delete
    routes through the lockset check.  A touch without ``guard_key`` in
    the calling thread's lockset raises
    :class:`~repro.errors.GuardViolationError`.

    Checks apply only when the sanitizer is on *and* the instance is
    armed (construction finished): constructor assignments run before
    arming, so ``__init__`` publishing fields without the lock stays
    legal, matching the static inference's construction-phase exclusion.
    """

    def __init__(self, owner_key: str, attr: str, guard_key: str):
        self.owner_key = owner_key
        self.attr = attr
        self.guard_key = guard_key

    def __repr__(self) -> str:
        return (
            f"<GuardedField {self.owner_key}.{self.attr} "
            f"guarded by {self.guard_key}>"
        )

    def _check(self, inst: Any, verb: str) -> None:
        if not _sanitize:
            return
        if not inst.__dict__.get(_GUARD_ARMED):
            return
        if self.guard_key in held_lock_keys():
            return
        raise GuardViolationError(
            f"{verb} of {self.owner_key}.{self.attr} without holding its "
            f"guard {self.guard_key} (held: {held_lock_keys() or 'no locks'}); "
            f"the guard manifest is guards.lock.json (python -m repro guards)"
        )

    def __get__(self, inst: Any, owner: type | None = None) -> Any:
        if inst is None:
            return self
        self._check(inst, "read")
        try:
            return inst.__dict__[self.attr]
        except KeyError:
            raise AttributeError(self.attr) from None

    def __set__(self, inst: Any, value: Any) -> None:
        self._check(inst, "write")
        inst.__dict__[self.attr] = value

    def __delete__(self, inst: Any) -> None:
        self._check(inst, "delete")
        try:
            del inst.__dict__[self.attr]
        except KeyError:
            raise AttributeError(self.attr) from None


def install_guard_witness(
    cls: type, fields: dict[str, str], owner_key: str | None = None
) -> None:
    """Wrap ``fields`` (attr -> guard lock key) of ``cls`` with
    :class:`GuardedField` descriptors and arm new instances.

    Arming happens in a wrapped ``__init__`` — but only when that
    wrapper is the *outermost* constructor (``type(inst).__init__`` is
    the wrapper).  A subclass with its own ``__init__`` keeps assigning
    fields after ``super().__init__`` returns, so arming there would
    flag construction-phase writes; such instances simply go
    unwitnessed, which can miss races but never invents one.

    Instances that predate the install keep working: their values
    already sit in the instance dict where the descriptor looks, and
    they are never armed.
    """
    if cls in _witnessed_classes:
        raise RuntimeError(f"guard witness already installed on {cls!r}")
    owner_key = owner_key or cls.__name__
    saved: dict[str, Any] = {}
    for attr, guard_key in fields.items():
        saved[attr] = cls.__dict__.get(attr, _MISSING)
        setattr(cls, attr, GuardedField(owner_key, attr, guard_key))
    original_init = cls.__init__

    def _arming_init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        if type(self).__init__ is _arming_init:
            self.__dict__[_GUARD_ARMED] = True

    _arming_init._tdp_guard_wrapper = True  # type: ignore[attr-defined]
    cls.__init__ = _arming_init  # type: ignore[method-assign]
    _witnessed_classes[cls] = (saved, original_init)


def uninstall_guard_witness(cls: type) -> None:
    """Undo :func:`install_guard_witness`, restoring the class exactly."""
    saved, original_init = _witnessed_classes.pop(cls)
    for attr, original in saved.items():
        if original is _MISSING:
            delattr(cls, attr)
        else:
            setattr(cls, attr, original)
    cls.__init__ = original_init  # type: ignore[method-assign]


def arm_guard_witness(lock_path: Any = None) -> list[str]:
    """Install the witness for every witnessed field of the committed
    guard manifest; returns the armed class qualnames.

    ``lock_path`` defaults to ``guards.lock.json`` at the repository
    root (three levels above this module's package).  The analysis
    package is imported lazily — like :func:`_hierarchy`, the plain
    (sanitizer-off) path never pays for it.
    """
    import importlib
    import pathlib

    from repro.analysis.guards import LOCK_FILENAME, load_lock, witnessed_fields

    if lock_path is None:
        lock_path = (
            pathlib.Path(__file__).resolve().parents[3] / LOCK_FILENAME
        )
    by_owner: dict[str, dict[str, str]] = {}
    for field_key, guard_key in witnessed_fields(load_lock(lock_path)).items():
        owner, _, attr = field_key.rpartition(".")
        by_owner.setdefault(owner, {})[attr] = guard_key
    armed: list[str] = []
    for owner, fields in sorted(by_owner.items()):
        modname, _, clsname = owner.rpartition(".")
        module = importlib.import_module(f"repro.{modname}")
        cls = getattr(module, clsname)
        if cls in _witnessed_classes:
            continue  # repeated arm (e.g. two pytest_configure calls)
        install_guard_witness(cls, fields, owner_key=owner)
        armed.append(owner)
    return armed


def _acquire(gate: Any, timeout: float | None) -> bool:
    """One C-level wait on ``gate``, a held raw lock, until another
    thread releases it; True if it did.  A timeout of zero or less
    waits not at all, as ``threading``'s waits treat it."""
    if timeout is None:
        return gate.acquire()
    return timeout > 0 and gate.acquire(True, timeout)


class Latch(Generic[T]):
    """One-shot gate: ``open(value)`` releases every ``wait()``.

    Re-opening is idempotent (the first value wins), so racing producers
    are safe.  ``wait`` raises :class:`~repro.errors.GetTimeoutError` on
    timeout, matching the blocking-get semantics it usually backs.

    A waiter blocks in one C-level ``acquire`` of ``_gate``, a raw lock
    held from construction: ``open`` releases it once, and each waiter
    that gets through releases it again for the next.
    """

    def __init__(self) -> None:
        self._gate = _thread.allocate_lock()
        self._gate.acquire()
        self._value: T | None = None
        # tdp-guard: _open -> volatile
        # (set once, under _lock and after _value; a reader that sees it
        # set sees the value too, and one that sees it clear waits)
        self._open = False
        self._lock = tracked_lock("util.sync.Latch._lock")

    def open(self, value: T) -> bool:
        """Open the latch with ``value``; returns False if already open."""
        with self._lock:
            if self._open:
                return False
            self._value = value
            self._open = True
        self._gate.release()
        return True

    def is_open(self) -> bool:
        return self._open

    def peek(self) -> T | None:
        """The latched value, or None if not yet open."""
        with self._lock:
            return self._value if self._open else None

    def wait(self, timeout: float | None = None) -> T:
        """Block until open; return the latched value."""
        witness_blocking("Latch.wait")
        if not self._open:
            if _acquire(self._gate, timeout):
                self._gate.release()  # pass the gate on to the next waiter
            elif not self._open:
                raise GetTimeoutError(f"latch wait timed out after {timeout}s")
        return self._value  # type: ignore[return-value]


#: the slot of a parked getter that no put has handed an item
_EMPTY: Any = object()


class _Getter:
    """A parked :meth:`WaitableQueue.get`: its gate, held until a put
    fills ``item`` and releases it (or ``close`` releases it empty)."""

    __slots__ = ("gate", "item")

    def __init__(self) -> None:
        self.gate = _thread.allocate_lock()
        self.gate.acquire()
        self.item: Any = _EMPTY


class WaitableQueue(Generic[T]):
    """Unbounded FIFO with close semantics.

    Unlike :class:`queue.Queue`, ``close()`` wakes every blocked reader
    with :class:`~repro.errors.ChannelClosedError` once the queue drains,
    which is what a channel receive loop needs on disconnect.  Items
    queued before close are still delivered (graceful drain).

    A reader with nothing to read parks on a gate of its own — a raw
    lock it holds, released by whoever ends its wait — so each hand-off
    is one C-level ``acquire``.  A put hands its item straight to the
    oldest parked ``get``, which returns it without taking the queue's
    lock again; the deque is empty while a getter is parked, so order
    holds.  An item that lands in the deque wakes every parked
    :meth:`wait_nonempty` peeker; a peeker does not consume, and never
    absorbs the wakeup a getter needs.  The gates are not tracked locks:
    the thread that releases one never acquired it, which the witness's
    per-thread lockset would misread.
    """

    def __init__(self) -> None:
        self._items: collections.deque[T] = collections.deque()
        #: parked getters, oldest first, and parked peekers' gates
        self._getters: collections.deque[_Getter] = collections.deque()
        self._peekers: list[Any] = []
        self._lock = tracked_lock("util.sync.WaitableQueue._lock")
        self._closed = False

    def _add(self, item: T) -> None:
        """Hand ``item`` to the oldest parked getter, else queue it
        (caller holds ``_lock``)."""
        if self._getters:
            getter = self._getters.popleft()
            getter.item = item
            getter.gate.release()
            return
        self._items.append(item)
        self._wake_peekers()

    def _wake_peekers(self) -> None:
        for gate in self._peekers:
            gate.release()
        self._peekers.clear()

    def put(self, item: T) -> None:
        with self._lock:
            if self._closed:
                raise ChannelClosedError("put on closed queue")
            self._add(item)

    def offer(self, item: T, maxsize: int | None) -> bool:
        """Bounded non-blocking put: enqueue unless ``maxsize`` items are
        already queued (``None`` = unbounded, i.e. :meth:`put`).

        Returns False when the queue is full — the caller applies its
        overflow policy (the attribute-space server disconnects the slow
        subscriber).  Raises ``ChannelClosedError`` on a closed queue,
        like :meth:`put`.
        """
        with self._lock:
            if self._closed:
                raise ChannelClosedError("offer on closed queue")
            if maxsize is not None and len(self._items) >= maxsize:
                return False
            self._add(item)
            return True

    def get(self, timeout: float | None = None) -> T:
        """Pop the oldest item, blocking until one arrives.

        Raises ``ChannelClosedError`` when the queue is closed and empty,
        ``GetTimeoutError`` on timeout.
        """
        witness_blocking("WaitableQueue.get")
        with self._lock:
            if self._items:
                return self._items.popleft()
            if self._closed:
                raise ChannelClosedError("queue closed")
            getter = _Getter()
            self._getters.append(getter)
        try:
            woken = _acquire(getter.gate, timeout)
        except BaseException:  # interrupted: an item handed over meanwhile stays queued
            with self._lock:
                if getter in self._getters:
                    self._getters.remove(getter)
                elif getter.item is not _EMPTY:
                    self._items.appendleft(getter.item)
                    self._wake_peekers()
            raise
        if not woken:
            with self._lock:
                parked = getter in self._getters
                if parked:
                    self._getters.remove(getter)
            if parked:
                raise GetTimeoutError(f"queue get timed out after {timeout}s")
            # else a put or close released the gate as the deadline passed
        if getter.item is _EMPTY:
            raise ChannelClosedError("queue closed")  # close() releases empty-handed
        return getter.item

    def get_nowait(self) -> T:
        """Pop immediately; raises ``IndexError`` if empty (closed or not)."""
        with self._lock:
            if not self._items:
                if self._closed:
                    raise ChannelClosedError("queue closed")
                raise IndexError("queue empty")
            return self._items.popleft()

    def wait_nonempty(self, timeout: float | None = None) -> bool:
        """Block until an item is queued (without consuming it).

        Returns True when an item is available, False on timeout or when
        the queue closed empty.
        """
        witness_blocking("WaitableQueue.wait_nonempty")
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._lock:
                if self._items or self._closed:
                    return bool(self._items)
                gate = _thread.allocate_lock()
                gate.acquire()
                self._peekers.append(gate)
            if not _acquire(gate, None if deadline is None else deadline - time.monotonic()):
                with self._lock:
                    if gate in self._peekers:  # nothing released it: the deadline passed
                        self._peekers.remove(gate)
                        return False
            # released: look again (a getter may have taken the item first)

    def drain(self) -> list[T]:
        """Atomically remove and return all currently queued items."""
        with self._lock:
            items = list(self._items)
            self._items.clear()
            return items

    def close(self) -> None:
        """Close the queue; idempotent."""
        with self._lock:
            self._closed = True
            for getter in self._getters:
                getter.gate.release()
            self._getters.clear()
            self._wake_peekers()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def extend(self, items: Iterable[T]) -> None:
        with self._lock:
            if self._closed:
                raise ChannelClosedError("extend on closed queue")
            for item in items:
                self._add(item)


def join_all(threads: Iterable[threading.Thread], timeout: float = 10.0) -> None:
    """Join each thread with a shared deadline; raise if any is still alive.

    Tests use this to guarantee daemon threads exit — a hung daemon is a
    bug, not something to leak past the test.
    """
    deadline = time.monotonic() + timeout
    stuck: list[str] = []
    for t in threads:
        remaining = deadline - time.monotonic()
        t.join(max(0.0, remaining))
        if t.is_alive():
            stuck.append(t.name)
    if stuck:
        raise RuntimeError(f"threads did not exit: {stuck}")


class AtomicCounter:
    """Thread-safe integer counter (used for statistics)."""

    def __init__(self, initial: int = 0):
        # tdp-guard: _value -> util.sync.AtomicCounter._lock
        # (declared, not left to inference: the cross-thread increments
        # come from stored serve_loop callbacks, whose thread the static
        # root map cannot see)
        self._value = initial
        self._lock = tracked_lock("util.sync.AtomicCounter._lock")

    def increment(self, delta: int = 1) -> int:
        with self._lock:
            self._value += delta
            return self._value

    @property
    def value(self) -> int:
        with self._lock:
            return self._value
