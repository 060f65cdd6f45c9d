"""Asynchronous change notification for the attribute space.

Paper Section 2.1: "There is also a mechanism for providing asynchronous
notifications" — the RM "optionally can use the asynchronous notification
to hear immediately about the change" (Section 2.3).  A subscription
names a context and a glob pattern over attribute names; every matching
``put`` or ``remove`` produces a :class:`Notification` that the server
pushes to the subscribing connection.

Delivery is decoupled from the publisher: a connection's ``deliver``
only *offers* the frame to that connection's bounded outbound buffer,
so one slow or dead subscriber can never stall the thread that
performed the put — it is disconnected when its buffer overflows
instead (the slow-subscriber policy, DESIGN.md §9).
"""

from __future__ import annotations

import fnmatch
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.util.ids import IdAllocator
from repro.util.sync import tracked_lock


@dataclass(frozen=True)
class Notification:
    """One change event: an attribute was put (with value) or removed."""

    context: str
    attribute: str
    value: str | None  # None means the attribute was removed
    kind: str  # "put" | "remove"
    #: federation provenance: the LASS origin id (``lass:<host>``) of the
    #: server that first applied this change, or ``None`` for a change
    #: applied directly on this server.  A LASS stamps it on every local
    #: apply and on every upstream forward so the CASS can suppress the
    #: echo back to the origin host and a LASS can recognize (and skip)
    #: its own changes arriving via an aggregated subscription.
    origin: str | None = None
    #: codec -> this event's encoded notify body, shared by every
    #: subscriber's frame (the server's ``deliver`` fills it); it lives
    #: exactly as long as the event, one publish
    bodies: dict = field(default_factory=dict, compare=False, repr=False)

    def to_wire(self) -> dict:
        return {
            "context": self.context,
            "attribute": self.attribute,
            "value": self.value,
            "kind": self.kind,
            "origin": self.origin,
        }

    @staticmethod
    def from_wire(d: dict) -> "Notification":
        origin = d.get("origin")
        return Notification(
            context=str(d["context"]),
            attribute=str(d["attribute"]),
            value=d["value"],
            kind=str(d["kind"]),
            origin=str(origin) if origin is not None else None,
        )


@dataclass(frozen=True)
class _Subscription:
    sub_id: int
    context: str
    pattern: str
    deliver: Callable[[int, Notification], None]
    #: fan-out dedup group: subscriptions sharing a non-None group get at
    #: most ONE delivery per published event between them.  A LASS's
    #: aggregated upstream subscriptions all carry its origin id as the
    #: group, so overlapping patterns from one host still cost the CASS
    #: exactly one egress frame per event — the LASS re-fans locally.
    group: str | None = None


class _Pattern:
    """One distinct pattern of a context and the subscriptions on it."""

    __slots__ = ("match", "subs")

    def __init__(self, pattern: str):
        # ``fnmatchcase`` semantics, compiled once; a name without glob
        # characters matches only itself, so it is a plain compare.
        self.match: Callable[[str], object] = (
            re.compile(fnmatch.translate(pattern)).match
            if any(c in pattern for c in "*?[") else pattern.__eq__
        )
        #: sub id -> subscription, in ascending id (= insertion) order
        self.subs: dict[int, _Subscription] = {}


class SubscriptionRegistry:
    """Thread-safe registry of pattern subscriptions.

    Subscriptions are indexed context -> pattern -> subscriptions, so a
    publish tests each distinct pattern of its context once, however
    many subscribers share it.

    ``deliver`` callables must be non-blocking (the store invokes them
    from the putter's thread); server connections satisfy this by
    offering the frame to their bounded outbound queue and never by
    writing to the channel inline.
    """

    def __init__(self) -> None:
        # tdp-guard: _subs -> attrspace.notify.SubscriptionRegistry._lock
        self._subs: dict[int, _Subscription] = {}
        # tdp-guard: _index -> attrspace.notify.SubscriptionRegistry._lock
        self._index: dict[str, dict[str, _Pattern]] = {}
        self._ids = IdAllocator()
        self._lock = tracked_lock("attrspace.notify.SubscriptionRegistry._lock")

    def subscribe(
        self,
        context: str,
        pattern: str,
        deliver: Callable[[int, Notification], None],
        *,
        group: str | None = None,
    ) -> int:
        """Register; returns the subscription id used for unsubscribe.

        ``group`` joins the subscription to a fan-out dedup group (see
        :class:`_Subscription`); plain subscriptions pass ``None``.
        """
        with self._lock:
            sub_id = self._ids.next()
            sub = _Subscription(sub_id, context, pattern, deliver, group)
            self._subs[sub_id] = sub
            patterns = self._index.setdefault(context, {})
            entry = patterns.get(pattern)
            if entry is None:
                entry = patterns[pattern] = _Pattern(pattern)
            entry.subs[sub_id] = sub
            return sub_id

    def unsubscribe(self, sub_id: int) -> bool:
        with self._lock:
            return self._remove(sub_id)

    def unsubscribe_many(self, sub_ids: "Iterable[int]") -> list[int]:
        """Drop a batch of subscriptions in one lock hold (connection
        teardown); returns the ids that were still registered."""
        with self._lock:
            return [s for s in sub_ids if self._remove(s)]

    def _remove(self, sub_id: int) -> bool:
        # caller holds _lock
        sub = self._subs.pop(sub_id, None)
        if sub is None:
            return False
        patterns = self._index[sub.context]
        entry = patterns[sub.pattern]
        del entry.subs[sub_id]
        if not entry.subs:
            del patterns[sub.pattern]
            if not patterns:
                del self._index[sub.context]
        return True

    def drop_context(self, context: str) -> int:
        """Remove every subscription on a context (context destruction)."""
        with self._lock:
            dropped = 0
            for entry in self._index.pop(context, {}).values():
                for sub_id in entry.subs:
                    del self._subs[sub_id]
                dropped += len(entry.subs)
            return dropped

    def publish(self, notification: Notification) -> int:
        """Fan a notification out to matching subscribers; returns count.

        Each distinct pattern of the event's context is matched once
        (an exact name by a plain compare), and the subscriptions of
        every matching pattern are delivered in ascending sub id, the
        order they subscribed in.  Subscriptions sharing a dedup group
        receive at most one delivery per event between them
        (subscription-aggregation: one frame per downstream host,
        however many of its patterns overlap) — the lowest sub id of
        the group gets it.
        """
        attribute = notification.attribute
        with self._lock:
            patterns = self._index.get(notification.context)
            if not patterns:
                return 0
            hits = [e.subs for e in patterns.values() if e.match(attribute)]
            if len(hits) == 1:
                targets = list(hits[0].values())
            else:
                targets = sorted(
                    (s for subs in hits for s in subs.values()),
                    key=lambda s: s.sub_id)
        delivered = 0
        seen_groups: set[str] = set()
        for s in targets:
            if s.group is not None:
                if s.group in seen_groups:
                    continue
                seen_groups.add(s.group)
            s.deliver(s.sub_id, notification)
            delivered += 1
        return delivered

    def __len__(self) -> int:
        with self._lock:
            return len(self._subs)
