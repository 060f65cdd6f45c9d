"""The attribute store: context-partitioned (attribute, value) space.

Semantics pinned from the paper (Section 3.2):

* attributes and values are strings (validated by :mod:`repro.util.strings`);
* ``put`` blocks until the attribute is stored (here: returns after the
  store mutates — callers over a channel block on the reply);
* blocking ``get`` waits until some daemon puts the attribute; the
  non-blocking variant reports an error when absent;
* a *context* partitions the space per (RM, RT) pairing; a context is
  created by the first ``tdp_init`` naming it and destroyed when the last
  member calls ``tdp_exit``;
* attributes can also be removed (Section 2.1: "inserted and removed").

Waiters are callback-registered rather than thread-blocking so one server
thread can park any number of pending blocking GETs (the same reasoning
the paper applies to tool event loops).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.errors import (
    AttributeFormatError,
    ContextError,
    NoSuchAttributeError,
    ProtocolError,
    TdpError,
)
from repro.attrspace.notify import Notification, SubscriptionRegistry
from repro.util.ids import IdAllocator
from repro.util.strings import encode_value, validate_attribute_name
from repro.util.sync import tracked_rlock

#: The context used when daemons do not name one explicitly.
DEFAULT_CONTEXT = "default"


@dataclass
class StoredValue:
    """A value plus bookkeeping (who put it, when, how many times updated).

    ``ephemeral`` values are tied to their writer's session: the server
    purges them when the writer detaches, its unleased connection
    closes or its lease expires (a daemon's ``presence.<entity>``
    attribute uses this, so a dead daemon cannot claim to be alive).
    """

    value: str
    writer: str
    version: int
    stored_at: float
    ephemeral: bool = False


#: One-shot waiter callback.  Called with the attribute's value when a
#: put satisfies the wait, or with ``None`` when the wait is cancelled
#: because the context was destroyed (a remove-kind wake: the attribute
#: can never arrive).
WaiterCallback = Callable[[str | None], None]


@dataclass
class _Context:
    name: str
    members: set[str] = field(default_factory=set)
    data: dict[str, StoredValue] = field(default_factory=dict)
    #: attr -> list of (waiter_id, callback)
    waiters: dict[str, list[tuple[int, WaiterCallback]]] = field(
        default_factory=dict
    )


class AttributeStore:
    """Thread-safe multi-context attribute space.

    This is the server-side state of one LASS or CASS; it is also usable
    directly (in-process) for unit tests and for the simulated programs'
    local access path.
    """

    def __init__(self) -> None:
        self._contexts: dict[str, _Context] = {}
        self._lock = tracked_rlock("attrspace.store.AttributeStore._lock")
        self._waiter_ids = IdAllocator()
        self.subscriptions = SubscriptionRegistry()
        # Pre-create the default context with a synthetic member so it is
        # never garbage-collected by detach bookkeeping.
        ctx = _Context(DEFAULT_CONTEXT)
        ctx.members.add("<builtin>")
        self._contexts[DEFAULT_CONTEXT] = ctx

    # -- context lifecycle --------------------------------------------------

    def attach(self, context: str, member: str) -> None:
        """Join ``member`` to ``context``, creating the context if new.

        Mirrors ``tdp_init(context)``: "A different context parameter is
        used by the RM in each tdp_init call to create a different space."
        """
        with self._lock:
            ctx = self._contexts.get(context)
            if ctx is None:
                ctx = _Context(context)
                self._contexts[context] = ctx
            ctx.members.add(member)

    def detach(self, context: str, member: str) -> bool:
        """Leave a context; destroys it when the last member leaves.

        Returns True when the context was destroyed.  Mirrors
        ``tdp_exit``: "An Attribute Space ... will be destroyed when the
        last element using the specific context calls tdp_exit."

        Destruction cancels every pending blocking get with an explicit
        remove-kind wake (callback invoked with ``None``) — a parked
        waiter must hear that its attribute can never arrive rather than
        hang until a channel timeout.
        """
        doomed: list[tuple[int, WaiterCallback]] = []
        with self._lock:
            ctx = self._contexts.get(context)
            if ctx is None:
                raise ContextError(f"unknown context {context!r}")
            ctx.members.discard(member)
            destroyed = not ctx.members
            if destroyed:
                del self._contexts[context]
                self.subscriptions.drop_context(context)
                for entries in ctx.waiters.values():
                    doomed.extend(entries)
                ctx.waiters.clear()
        # Outside the lock (callbacks may re-enter the store or block on
        # a channel send).
        for _wid, cb in doomed:
            cb(None)
        return destroyed

    def contexts(self) -> list[str]:
        with self._lock:
            return sorted(self._contexts)

    def members(self, context: str) -> set[str]:
        with self._lock:
            return set(self._require(context).members)

    def _require(self, context: str) -> _Context:
        ctx = self._contexts.get(context)
        if ctx is None:
            raise ContextError(f"unknown context {context!r}")
        return ctx

    # -- data operations ------------------------------------------------------

    def put(self, attribute: str, value: str, *, context: str = DEFAULT_CONTEXT,
            writer: str = "?", ephemeral: bool = False,
            origin: str | None = None) -> StoredValue:
        """Store (attribute, value); wakes blocking getters and subscribers.

        Re-putting an existing attribute overwrites it (version bumped) —
        the space is a map, not a multiset; this matches the MPD-style
        usage in the pilot where e.g. a status attribute is updated.
        ``ephemeral`` marks the value for purging when ``writer``'s
        session ends (see :meth:`purge_ephemeral`).  ``origin`` is the
        federation provenance stamped onto the notification (the LASS
        origin id of the host that first applied the change), used for
        echo suppression in the LASS↔CASS hierarchy.
        """
        validate_attribute_name(attribute)
        encode_value(value)
        with self._lock:
            ctx = self._require(context)
            old = ctx.data.get(attribute)
            sv = StoredValue(
                value=value,
                writer=writer,
                version=(old.version + 1) if old else 1,
                stored_at=time.monotonic(),
                ephemeral=ephemeral,
            )
            ctx.data[attribute] = sv
            callbacks = ctx.waiters.pop(attribute, [])
        # Outside the lock: wake waiters first (blocking gets), then fan
        # out notifications.
        for _wid, cb in callbacks:
            cb(value)
        self.subscriptions.publish(
            Notification(context=context, attribute=attribute, value=value,
                         kind="put", origin=origin)
        )
        return sv

    def fill(self, attribute: str, value: str, *, context: str = DEFAULT_CONTEXT,
             writer: str = "?") -> str:
        """Cache-fill: insert a value learned from upstream, quietly.

        A LASS satisfying a forwarded ``get`` installs the CASS's answer
        with ``fill`` rather than :meth:`put`: parked blocking-get
        waiters are woken (that is the point), but **no notification is
        published** — the value is not a new change, merely this host
        learning an existing one, and republishing it would duplicate
        the notify the aggregated subscription path already delivers.
        Insert-if-absent: a concurrent real put wins, and the present
        value is returned either way.
        """
        validate_attribute_name(attribute)
        encode_value(value)
        with self._lock:
            ctx = self._require(context)
            sv = ctx.data.get(attribute)
            if sv is not None:
                return sv.value
            ctx.data[attribute] = StoredValue(
                value=value,
                writer=writer,
                version=1,
                stored_at=time.monotonic(),
            )
            callbacks = ctx.waiters.pop(attribute, [])
        for _wid, cb in callbacks:
            cb(value)
        return value

    def apply_batch(
        self,
        ops: list,
        *,
        default_context: str = DEFAULT_CONTEXT,
        writer: str = "?",
        origin: str | None = None,
    ) -> "list[dict | Exception]":
        """Apply a list of put/get/remove sub-operations in one lock hold.

        ``ops`` uses the wire shape of an ``OP_BATCH`` frame: each entry
        is a dict with ``op`` (``"put"``/``"get"``/``"remove"``) plus the
        operation's fields; ``context`` defaults per-op to
        ``default_context``.  Returns one result per op, positionally:
        the reply fields (``{"version": ...}``, ``{"value": ...}``,
        ``{"existed": ...}``) or the exception that op raised.  Ops apply
        independently, in order — a failure does not roll back or skip
        the others (the batch is a pipeline, not a transaction).

        The single lock hold is the point: a 50-op batch costs one
        acquire/release instead of 50, and concurrent readers observe
        the batch atomically.  Waiter wakes and notifications are
        collected inside the hold but fired after release, preserving
        :meth:`put`'s discipline (callbacks may re-enter the store or
        enqueue onto connection queues).
        """
        results: list[dict | Exception] = []
        wakes: list[tuple[WaiterCallback, str]] = []
        notifications: list[Notification] = []
        with self._lock:
            for sub in ops:
                try:
                    results.append(
                        self._apply_one(
                            sub, default_context, writer, origin, wakes, notifications
                        )
                    )
                except TdpError as e:
                    results.append(e)
        for cb, value in wakes:
            cb(value)
        for notification in notifications:
            self.subscriptions.publish(notification)
        return results

    def _apply_one(
        self,
        sub: Any,
        default_context: str,
        writer: str,
        origin: str | None,
        wakes: "list[tuple[WaiterCallback, str]]",
        notifications: "list[Notification]",
    ) -> dict:
        """One batch sub-op, under the already-held store lock."""
        if not isinstance(sub, dict):
            raise ProtocolError(
                f"batch sub-op must be an object, got {type(sub).__name__}"
            )
        op = sub.get("op")
        # Sub-ops inherit the batch frame's context: a per-sub-op
        # override was never encodable client-side, so reading one here
        # would just mask drift (frame-field-phantom).
        context = default_context
        if not isinstance(context, str) or not context:
            raise ProtocolError(f"bad context field: {context!r}")
        attribute = str(sub.get("attribute", ""))
        validate_attribute_name(attribute)
        ctx = self._require(context)
        if op == "put":
            value = sub.get("value")
            if not isinstance(value, str):
                raise AttributeFormatError(
                    f"value must be a string, got {type(value).__name__}"
                )
            encode_value(value)
            old = ctx.data.get(attribute)
            sv = StoredValue(
                value=value,
                writer=writer,
                version=(old.version + 1) if old else 1,
                stored_at=time.monotonic(),
                ephemeral=bool(sub.get("ephemeral", False)),
            )
            ctx.data[attribute] = sv
            for _wid, cb in ctx.waiters.pop(attribute, []):
                wakes.append((cb, value))
            notifications.append(
                Notification(context=context, attribute=attribute, value=value,
                             kind="put", origin=origin)
            )
            return {"version": sv.version}
        if op == "get":
            if sub.get("block"):
                raise ProtocolError("blocking get is not allowed in a batch")
            sv = ctx.data.get(attribute)
            if sv is None:
                raise NoSuchAttributeError(attribute, context)
            return {"value": sv.value}
        if op == "remove":
            existed = ctx.data.pop(attribute, None) is not None
            if existed:
                notifications.append(
                    Notification(context=context, attribute=attribute, value=None,
                                 kind="remove", origin=origin)
                )
            return {"existed": existed}
        raise ProtocolError(f"unsupported batch op {op!r}")

    def try_get(self, attribute: str, *, context: str = DEFAULT_CONTEXT) -> str:
        """Non-blocking get; raises :class:`NoSuchAttributeError` if absent."""
        validate_attribute_name(attribute)
        with self._lock:
            ctx = self._require(context)
            sv = ctx.data.get(attribute)
            if sv is None:
                raise NoSuchAttributeError(attribute, context)
            return sv.value

    def get_entry(self, attribute: str, *, context: str = DEFAULT_CONTEXT) -> StoredValue:
        """Full stored record (value + metadata).

        Returns a copy: the live record is server state mutated under
        the lock, and handing it out would alias that state to callers
        on other threads.
        """
        validate_attribute_name(attribute)
        with self._lock:
            ctx = self._require(context)
            sv = ctx.data.get(attribute)
            if sv is None:
                raise NoSuchAttributeError(attribute, context)
            return replace(sv)

    def add_waiter(
        self,
        attribute: str,
        callback: WaiterCallback,
        *,
        context: str = DEFAULT_CONTEXT,
    ) -> int | None:
        """Register a one-shot callback for the next value of ``attribute``.

        If the attribute already exists the callback fires immediately
        (from this thread) and ``None`` is returned; otherwise a waiter id
        usable with :meth:`cancel_waiter` is returned.  This is the
        primitive beneath both blocking and asynchronous ``tdp_get``.

        The callback receives the value, or ``None`` when the wait is
        cancelled because the context was destroyed (see :meth:`detach`).
        """
        validate_attribute_name(attribute)
        with self._lock:
            ctx = self._require(context)
            sv = ctx.data.get(attribute)
            if sv is None:
                wid = self._waiter_ids.next()
                ctx.waiters.setdefault(attribute, []).append((wid, callback))
                return wid
            value = sv.value
        callback(value)
        return None

    def cancel_waiter(self, context: str, attribute: str, waiter_id: int) -> bool:
        """Remove a pending waiter (client disconnected / timed out)."""
        with self._lock:
            ctx = self._contexts.get(context)
            if ctx is None:
                return False
            entries = ctx.waiters.get(attribute, [])
            for i, (wid, _cb) in enumerate(entries):
                if wid == waiter_id:
                    del entries[i]
                    if not entries:
                        ctx.waiters.pop(attribute, None)
                    return True
            return False

    def get(
        self,
        attribute: str,
        *,
        context: str = DEFAULT_CONTEXT,
        timeout: float | None = None,
    ) -> str:
        """Blocking get for in-process callers (tests, sim fast path).

        Channel clients implement blocking gets via :meth:`add_waiter`;
        this convenience wraps the same primitive with a local latch.
        """
        from repro.util.sync import Latch

        latch: Latch[str | None] = Latch()
        wid = self.add_waiter(attribute, latch.open, context=context)
        if wid is None:
            value = latch.wait(timeout=0)  # already filled synchronously
        else:
            try:
                value = latch.wait(timeout=timeout)
            finally:
                if not latch.is_open():
                    self.cancel_waiter(context, attribute, wid)
        if value is None:
            raise ContextError(
                f"context {context!r} destroyed while waiting for {attribute!r}"
            )
        return value

    def purge_ephemeral(self, context: str, owner: str) -> list[str]:
        """Delete every ephemeral attribute ``owner`` wrote in ``context``.

        Called when a member detaches, its unleased connection closes or
        its session lease expires.  Subscribers see ordinary remove
        notifications — an RM watching ``presence.*`` learns about the
        death the same way it would learn about an explicit remove.  Returns the purged names.
        """
        with self._lock:
            ctx = self._contexts.get(context)
            if ctx is None:
                return []
            doomed = sorted(
                name for name, sv in ctx.data.items()
                if sv.ephemeral and sv.writer == owner
            )
            for name in doomed:
                del ctx.data[name]
        for name in doomed:
            self.subscriptions.publish(
                Notification(context=context, attribute=name, value=None, kind="remove")
            )
        return doomed

    def remove(self, attribute: str, *, context: str = DEFAULT_CONTEXT,
               origin: str | None = None) -> bool:
        """Remove an attribute; returns False if it was absent."""
        validate_attribute_name(attribute)
        with self._lock:
            ctx = self._require(context)
            existed = ctx.data.pop(attribute, None) is not None
        if existed:
            self.subscriptions.publish(
                Notification(context=context, attribute=attribute, value=None,
                             kind="remove", origin=origin)
            )
        return existed

    def list_attributes(self, *, context: str = DEFAULT_CONTEXT) -> list[str]:
        with self._lock:
            return sorted(self._require(context).data)

    def snapshot(self, *, context: str = DEFAULT_CONTEXT) -> dict[str, str]:
        """Copy of the whole context as a plain dict (diagnostics)."""
        with self._lock:
            return {k: v.value for k, v in self._require(context).data.items()}

    def pending_waiter_count(self, *, context: str = DEFAULT_CONTEXT) -> int:
        with self._lock:
            ctx = self._contexts.get(context)
            if ctx is None:
                return 0
            return sum(len(v) for v in ctx.waiters.values())
