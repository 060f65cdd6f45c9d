"""Federated attribute space: the LASS side of the LASS↔CASS hierarchy.

The paper's deployment (Section 2.2) runs a Local Attribute Space Server
on every execution host with a Central Attribute Space Server above it.
This module is the upstream collaborator an
:class:`~repro.attrspace.server.AttributeSpaceServer` constructed with an
``upstream`` endpoint calls out to:

* **Write-through forwarding.**  A local client's put/remove/batch is
  applied to the host's own store first, then forwarded upstream over
  one leased session per context, stamped with this host's *origin id*
  so the CASS can suppress the echo back to us.  A batch forwards as
  one ``OP_BATCH`` frame of the sub-ops that applied; per context,
  frames leave in local apply order.

* **Miss forwarding.**  A get the local store cannot answer is forwarded
  as an *asynchronous* upstream get carrying the originating client's
  deadline, so the CASS-side timer — not a local one — bounds the wait.
  The answer lands in the local store via
  :meth:`~repro.attrspace.store.AttributeStore.fill` (waking any parked
  local waiters) without republishing a change that never happened here.

* **Subscription aggregation.**  However many local clients subscribe to
  overlapping patterns, the LASS holds at most ONE upstream aggregated
  subscription per distinct (context, pattern), and the CASS dedups all
  of one host's aggregated subscriptions into a single egress frame per
  event (see ``OP_SUB_AGG``).  Upstream notifications are applied to the
  local store, whose ordinary publish re-fans them to every local
  subscriber — CASS egress is O(hosts), not O(subscribers).

Threading: the federation has no thread of its own.  A forward, a
forwarded get, a dial and an aggregated subscribe run on the caller's
thread (the serving loop, or the wall-timer thread for expiry purges);
a forward is one non-blocking submit onto the session, whose reply —
like every aggregated notification — is routed on the thread that sent
it (in memory, the CASS's serving thread; over TCP, the session's
reader), so it only counts, fills or applies and never waits.  ``_lock``
(rank 22) guards the interests, the session
table and the aggregate ledger; it is held across a non-blocking
submit, never across a dial or a blocking RPC.

Because every forwarded ephemeral put rides the LASS's upstream session
lease, a LASS that dies takes its hosts' ephemeral attributes with it at
the CASS — liveness propagates through the hierarchy for free.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
from typing import Any, Callable, Sequence

from repro import errors, obs
from repro.attrspace import protocol
from repro.attrspace.client import AttributeSpaceClient, ReconnectPolicy
from repro.attrspace.notify import Notification
from repro.attrspace.store import AttributeStore
from repro.net.address import Endpoint
from repro.transport.base import Transport
from repro.util.log import get_logger
from repro.util.sync import Latch, tracked_lock

_log = get_logger("attrspace.federation")

#: Failure callback of a forwarded get (success lands via ``store.fill``).
GetFailed = Callable[[Exception], None]


# -- pinned by the benchmark --------------------------------------------------
# Nothing in src/ calls the class below or its two helpers: there is one CASS.
# benchmarks/tdpbench/layers.py imports the class and times ``owner`` as
# ``federation.shard_owner_us``; the PR that drops that metric deletes
# everything from here to the end of the class.

#: Virtual nodes per shard on the consistent-hash ring.
RING_REPLICAS = 32


def _ring_point(key: str) -> int:
    """A stable 64-bit ring position (``hash()`` is seeded per process;
    sha1 answers the same in every process)."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


def attribute_prefix(attribute: str) -> str:
    """The routing prefix: the attribute name up to the first dot, so a
    family like ``proc.123.*`` has one owner."""
    return attribute.split(".", 1)[0]


class ShardMap:
    """Consistent-hash ring over ``shards`` (``"host:port"`` strings); a
    single-entry map routes everything to index 0 without hashing.
    ``epoch`` is accepted for the benchmark's call shape and ignored."""

    def __init__(self, epoch: int, shards: Sequence[str]):
        self.shards: tuple[str, ...] = tuple(str(s) for s in shards)
        if not self.shards:
            raise ValueError("a shard map needs at least one shard")
        self._ring: list[tuple[int, int]] = []
        if len(self.shards) > 1:
            for idx, shard in enumerate(self.shards):
                for replica in range(RING_REPLICAS):
                    self._ring.append((_ring_point(f"{shard}#{replica}"), idx))
            self._ring.sort()

    def owner(self, context: str, attribute: str) -> int:
        """The shard index owning (context, attribute-prefix)."""
        if len(self.shards) == 1:
            return 0
        point = _ring_point(f"{context}/{attribute_prefix(attribute)}")
        i = bisect.bisect_left(self._ring, (point, -1))
        if i == len(self._ring):
            i = 0
        return self._ring[i][1]


class LassFederation:
    """Upstream engine of one LASS: forwarding and aggregation.

    Owned by the server that was constructed with an upstream.  Every
    entry point runs on its caller's thread — the server's serving loop,
    or the wall-timer thread for expiry purges.  A forward never waits
    for its answer: it is one submit onto the context's session,
    completed where that session routes the reply.
    """

    def __init__(
        self,
        transport: Transport,
        host: str,
        upstream: Endpoint,
        *,
        store: AttributeStore,
        reconnect: ReconnectPolicy | None = None,
        lease_ttl: float | None = 30.0,
    ):
        self.transport = transport
        self.host = host
        self.upstream = upstream
        self.store = store
        #: stable identity on the wire: stamped on every local apply and
        #: every upstream forward; the CASS's echo suppression and the
        #: one-frame-per-host dedup group both key on it
        self.origin = f"lass:{host}"
        self._reconnect = reconnect
        self._lease_ttl = lease_ttl
        #: Own registry (never the server's): the server fills its stats
        #: dict during construction and nothing foreign writes it later.
        self.metrics = obs.MetricsRegistry(f"federation@{host}")
        self.counters = {
            key: self.metrics.counter(f"attrspace.federation.{key}")
            for key in (
                "forwards",
                "forward_failures",
                "forwarded_gets",
                "upstream_notifies",
                "suppressed_echoes",
                "aggregated_subs",
                "sessions_opened",
                "sessions_dropped",
            )
        }
        self._lock = tracked_lock("attrspace.federation.LassFederation._lock")
        # -- guarded by _lock ------------------------------------------------
        #: (context, pattern) -> count of local subscriptions wanting it
        self._interest: dict[tuple[str, str], int] = {}
        #: context -> its one leased session, dialled at ``upstream``
        self._sessions: dict[str, AttributeSpaceClient] = {}
        #: (context, pattern) -> upstream local sub id
        self._agg_subs: dict[tuple[str, str], int] = {}
        self._stopped = False

    # -- write path ------------------------------------------------------------

    def forward_put(
        self, context: str, attribute: str, value: str, ephemeral: bool = False
    ) -> None:
        self._forward(context, [{
            "op": protocol.OP_PUT, "attribute": attribute, "value": value,
            "ephemeral": ephemeral,
        }])

    def forward_remove(self, context: str, attribute: str) -> None:
        self._forward(context, [{"op": protocol.OP_REMOVE, "attribute": attribute}])

    def forward_batch(self, context: str, applied: list[dict[str, Any]]) -> None:
        """Forward the data sub-ops of a batch that *applied* locally, as
        one frame (gets stay host-local; a sub-op the store rejected
        never gets here, so nothing malformed goes upstream)."""
        writes = [
            op for op in applied if op["op"] in (protocol.OP_PUT, protocol.OP_REMOVE)
        ]
        if writes:
            self._forward(context, writes)

    def _forward(self, context: str, ops: list[dict[str, Any]]) -> None:
        """Submit writes that applied locally, in apply order; the reply
        (where the session routes it) counts them as ``forwards`` or
        ``forward_failures``."""
        count = len(ops)

        def complete(reply: dict[str, Any]) -> None:
            done = 0
            if reply.get("ok", False):
                subs = reply.get("replies")
                done = count if subs is None else sum(1 for s in subs if s.get("ok"))
            self.counters["forwards"].increment(done)
            if done < count:
                self.counters["forward_failures"].increment(count - done)
                _log.warning(
                    "%s: %d forwarded write(s) of context %r failed upstream: %s",
                    self.origin, count - done, context, reply.get("error", "batch"),
                )

        try:
            submitted = self._submit(context, self._write_frame(context, ops), complete)
        except Exception:  # noqa: BLE001 — a bad forward must cost neither the reply nor the loop
            _log.exception("%s: dropped %d forwarded write(s)", self.origin, count)
            submitted = False
        if not submitted:
            self.counters["forward_failures"].increment(count)

    def _write_frame(self, context: str, ops: list[dict[str, Any]]) -> dict[str, Any]:
        """One put or remove travels as itself, more as one ``OP_BATCH``
        (the ops passed the codec and the store, so they go as they are)."""
        if len(ops) == 1:
            return dict(ops[0], context=context, origin=self.origin)
        return {
            "op": protocol.OP_BATCH, "context": context, "ops": ops,
            "origin": self.origin,
        }

    # -- read path ---------------------------------------------------------------

    def forward_get(
        self,
        context: str,
        attribute: str,
        timeout: float | None,
        failed: GetFailed,
        *,
        block: bool = True,
    ) -> None:
        """Forward a local miss upstream on behalf of a parked waiter.

        The answer lands in the local store via ``fill`` — which wakes
        the waiter — and stays cached; ``failed(error)`` runs instead
        when upstream says no (both where the session routes the reply).
        ``timeout`` is the *originating client's* deadline, carried
        upstream verbatim so the CASS arms the timer.  A severed upstream
        session replays the parked get after re-attach (the session's
        pending replay), so an outage shorter than the reconnect
        policy's deadline is invisible to the waiting local client.
        """
        frame: dict[str, Any] = {
            "op": protocol.OP_GET, "context": context,
            "attribute": attribute, "block": bool(block),
        }
        if timeout is not None:
            frame["timeout"] = timeout

        def complete(reply: dict[str, Any]) -> None:
            try:
                if not reply.get("ok", False):
                    protocol.raise_error(reply, op=protocol.OP_GET)
                # A context destroyed meanwhile makes the fill raise; its
                # waiters were already cancelled and ``failed`` finds none.
                self.store.fill(
                    attribute, reply.get("value"), context=context, writer=self.origin
                )
            except errors.TdpError as e:
                failed(e)

        if self._submit(context, frame, complete):
            self.counters["forwarded_gets"].increment()
        else:
            failed(
                errors.ReconnectFailedError(
                    f"no upstream session to forward get({attribute!r})"
                )
            )

    # -- subscription aggregation ------------------------------------------------

    def note_subscribe(self, context: str, pattern: str) -> None:
        """A local client subscribed: ensure the upstream aggregate exists."""
        key = (context, pattern)
        with self._lock:
            count = self._interest.get(key, 0)
            self._interest[key] = count + 1
        if count:
            return
        client = self._session(context)
        if client is None:
            _log.warning(
                "%s: no upstream; aggregated sub %r deferred to session "
                "restore", self.origin, pattern,
            )
            return
        self._ensure_agg(context, pattern, client)

    def note_unsubscribe(self, context: str, pattern: str) -> None:
        """A live local subscription ended (unsubscribe or its connection
        closed); tear down the aggregate at zero."""
        key = (context, pattern)
        with self._lock:
            remaining = self._interest.get(key, 0) - 1
            if remaining > 0:
                self._interest[key] = remaining
                return
            if self._interest.pop(key, None) is None:
                return  # the context was dropped meanwhile
            sub_id = self._agg_subs.pop(key, None)
            client = self._sessions.get(context)
        if sub_id is not None and client is not None:
            # a dying session's subscriptions the server reaps with the lease
            with contextlib.suppress(errors.TdpError):
                client.unsubscribe(sub_id)

    def _ensure_agg(
        self, context: str, pattern: str, client: AttributeSpaceClient
    ) -> None:
        key = (context, pattern)
        with self._lock:
            if key in self._agg_subs:
                return
        try:
            sub_id = client.subscribe_agg(
                pattern, self._on_upstream_notify, origin=self.origin
            )
        except errors.TdpError as e:
            _log.warning(
                "%s: aggregated subscribe %r failed: %s", self.origin, pattern, e
            )
            return
        with self._lock:
            # Lost a race (a second thread subscribed, the last local
            # subscriber left, or the session was dropped) during the RPC.
            won = (
                key not in self._agg_subs
                and key in self._interest
                and self._sessions.get(context) is client
            )
            if won:
                self._agg_subs[key] = sub_id
        if not won:
            with contextlib.suppress(errors.TdpError):
                client.unsubscribe(sub_id)
            return
        self.counters["aggregated_subs"].increment()
        obs.record(
            "federation.sub_agg", actor=self.origin,
            pattern=pattern, context=context,
        )

    def _on_upstream_notify(self, notification: Notification, _arg: Any) -> None:
        """Apply a CASS-fanned change to the local store (a session sink:
        it runs on the CASS's sending thread in memory and must not wait).

        The local publish re-fans it to every matching local subscriber —
        this is the second hop of the two-hop fan-out that keeps CASS
        egress at one frame per host.  Origin is preserved so a further
        tier (or a diagnosing client) still sees where the change began.
        """
        if notification.origin == self.origin:
            # Our own change came back despite server-side suppression
            # (e.g. an upstream predating OP_SUB_AGG semantics).
            self.counters["suppressed_echoes"].increment()
            return
        self.counters["upstream_notifies"].increment()
        try:
            if notification.kind == "remove":
                self.store.remove(
                    notification.attribute,
                    context=notification.context,
                    origin=notification.origin,
                )
            elif notification.value is not None:
                self.store.put(
                    notification.attribute,
                    notification.value,
                    context=notification.context,
                    writer=notification.origin or "upstream",
                    origin=notification.origin,
                )
        except errors.TdpError:
            # Context destroyed locally while the frame was in flight, or
            # a malformed upstream value: the change is simply not cached.
            pass

    # -- lifecycle ---------------------------------------------------------------

    def drop_context(self, context: str) -> None:
        """The local context was destroyed: detach upstream too.

        The interests go with it — the store has already dropped the
        context's subscriptions, and a subscriber that re-creates the
        context must count as the first again.
        """
        with self._lock:
            for key in [k for k in self._interest if k[0] == context]:
                del self._interest[key]
        self._drop_session(context)

    def settle(self, timeout: float | None = 5.0) -> None:
        """Block until every forward submitted before this call has been
        answered upstream: one ping per live session, which the CASS
        answers after every earlier frame on it (deterministic tests;
        a forwarded get still parked upstream is NOT awaited).  Raises
        :class:`~repro.errors.GetTimeoutError` if a ping outwaits ``timeout``."""
        with self._lock:
            clients = list(self._sessions.values())
        latches = []
        for client in clients:
            latch: Latch[dict[str, Any]] = Latch()
            try:
                client._session.submit({"op": protocol.OP_PING}, latch.open)
            except errors.TdpError:
                continue  # an ended session has nothing left to answer
            latches.append(latch)
        for latch in latches:
            latch.wait(timeout=timeout)

    def stop(self) -> None:
        """Close every upstream session; idempotent, and nothing dials after."""
        with self._lock:
            self._stopped = True
            contexts = list(self._sessions)
        for context in contexts:
            self._drop_session(context)

    # -- sessions ------------------------------------------------------------------

    def _session(self, context: str) -> AttributeSpaceClient | None:
        """The context's session, dialled on first use.

        The dial and the aggregate re-subscriptions run on the caller's
        thread, the serving loop included.  That is safe: the CASS never
        waits on a LASS, so the attach round trip always completes, and
        an upstream that refuses (or a firewall rejects) fails the dial
        at once; a silent one costs at most the connect timeout.  Two
        threads racing to dial one context both dial; the loser closes
        its session.
        """
        with self._lock:
            client = self._sessions.get(context)
            stopped = self._stopped
        if client is not None or stopped:
            return client
        try:
            client = AttributeSpaceClient.connect(
                self.transport,
                self.host,
                self.upstream,
                context=context,
                member=self.origin,
                reconnect=self._reconnect,
                lease_ttl=self._lease_ttl,
            )
        except errors.TdpError as e:
            _log.warning("%s: cannot open upstream session: %s", self.origin, e)
            return None
        with self._lock:
            current = self._sessions.get(context)
            won = current is None and not self._stopped
            if won:
                self._sessions[context] = client
                patterns = [p for ctx, p in self._interest if ctx == context]
        if not won:
            client.close()
            return current
        self.counters["sessions_opened"].increment()
        # A recreated session (the prior one exhausted its reconnect
        # policy) must win back the context's aggregated subscriptions;
        # within-session outages re-subscribe via the client's own ledger.
        for pattern in patterns:
            self._ensure_agg(context, pattern, client)
        return client

    def _submit(
        self,
        context: str,
        frame: dict[str, Any],
        complete: Callable[[dict[str, Any]], None],
    ) -> bool:
        """Send ``frame`` on the context's session without waiting;
        False when there is none.  A session that has ended (its
        reconnect policy gave up) is dropped and one fresh one dialled.

        ``_lock`` is held across the submit, which never blocks: frames
        leave in submit order, and a drop cannot close the session
        between the lookup and the send.
        """
        for _attempt in range(2):
            client = self._session(context)
            if client is None:
                return False
            with self._lock:
                if self._sessions.get(context) is client:
                    try:
                        client._session.submit(frame, complete)
                        return True
                    except errors.TdpError:
                        pass
            self._drop_session(context, client)
        return False

    def _drop_session(
        self, context: str, client: AttributeSpaceClient | None = None
    ) -> None:
        """Close and forget a context's session (it ended, or the context
        is gone) with the aggregates that rode it; the next forward for
        the context dials — and re-subscribes — a fresh one.  With
        ``client``, only if that is still the context's session."""
        with self._lock:
            current = self._sessions.get(context)
            if current is None or client not in (None, current):
                return
            del self._sessions[context]
            for key in [k for k in self._agg_subs if k[0] == context]:
                del self._agg_subs[key]
        self.counters["sessions_dropped"].increment()
        with contextlib.suppress(errors.TdpError):
            current.close()
