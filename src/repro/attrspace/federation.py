"""Federated attribute space: the LASS side of the LASS↔CASS hierarchy.

The paper's deployment (Section 2.2) runs a Local Attribute Space Server
on every execution host with a Central Attribute Space Server above it.
This module is the upstream collaborator an
:class:`~repro.attrspace.server.AttributeSpaceServer` constructed with an
``upstream`` endpoint calls out to:

* **Write-through forwarding.**  A local client's put/remove/batch is
  applied to the host's own store first (the client's reply never waits
  on the WAN), then forwarded upstream over one leased session per
  context, stamped with this host's *origin id* so the CASS can
  suppress the echo back to us.  Consecutive queued writes of one
  context coalesce into one ``OP_BATCH`` frame — the PR-5 batch
  machinery doubles as the inter-server forwarding format.

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

Threading: all upstream traffic belongs to one worker thread that owns
the session table and aggregate ledger outright (no lock), fed through
an action queue; per-session pump threads service the upstream clients'
event queues (async-get completions, aggregated notifications).  The
only shared state — the aggregation refcounts — sits behind ``_lock``
(rank 22), which is never held across an upstream RPC or a queue wait.

Because every forwarded ephemeral put rides the LASS's upstream session
lease, a LASS that dies takes its hosts' ephemeral attributes with it at
the CASS — liveness propagates through the hierarchy for free.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import errors, obs
from repro.attrspace.client import AttributeSpaceClient, ReconnectPolicy
from repro.attrspace.notify import Notification
from repro.attrspace.store import AttributeStore
from repro.net.address import Endpoint
from repro.transport.base import Transport
from repro.util.log import get_logger
from repro.util.sync import Latch, WaitableQueue, join_all, tracked_lock
from repro.util.threads import spawn

_log = get_logger("attrspace.federation")

#: Queued writes bound upstream coalesce into one batch frame, at most
#: this many sub-ops each (bounds frame size and per-flush latency).
COALESCE_LIMIT = 64

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


@dataclass
class _Upstream:
    """One leased session to the CASS for one context."""

    client: AttributeSpaceClient
    pump: threading.Thread


class LassFederation:
    """Upstream engine of one LASS: forwarding and aggregation.

    Owned by the server that was constructed with an upstream.  All
    public ``forward_*``/``note_*`` entry points are non-blocking (they
    enqueue onto the worker's action queue) so no serving thread ever
    stalls on the upstream link.
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
        #: (context, pattern) -> count of local subscriptions wanting it
        self._interest: dict[tuple[str, str], int] = {}
        self._lock = tracked_lock("attrspace.federation.LassFederation._lock")
        self._actions: WaitableQueue[tuple] = WaitableQueue()
        # -- worker-confined state (no lock: only _worker's thread) -----
        #: context -> its one leased session, dialled at ``upstream``
        self._sessions: dict[str, _Upstream] = {}
        #: (context, pattern) -> upstream local sub id
        self._agg_subs: dict[tuple[str, str], int] = {}
        self._worker = spawn(self._run, name=f"federation-{host}")

    # -- entry points (any thread; never block on upstream) -----------------

    def forward_put(
        self, context: str, attribute: str, value: str, ephemeral: bool = False
    ) -> None:
        op: dict[str, Any] = {"op": "put", "attribute": attribute, "value": value}
        if ephemeral:
            op["ephemeral"] = True
        self._enqueue(("write", context, op))

    def forward_remove(self, context: str, attribute: str) -> None:
        self._enqueue(("write", context, {"op": "remove", "attribute": attribute}))

    def forward_batch(self, context: str, applied: list[dict[str, Any]]) -> None:
        """Forward the data sub-ops of a batch that *applied* locally
        (gets stay host-local; a sub-op the store rejected never gets
        here, so nothing malformed is ever queued for upstream)."""
        for op in applied:
            if op["op"] == "put":
                self.forward_put(
                    context, str(op["attribute"]), op["value"],
                    bool(op.get("ephemeral", False)),
                )
            elif op["op"] == "remove":
                self.forward_remove(context, str(op["attribute"]))

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
        the waiter — and stays cached; ``failed(error)`` runs (on a pump
        or the worker thread) when upstream says no instead.
        ``timeout`` is the *originating client's* deadline, carried
        upstream verbatim so the CASS arms the timer.  A severed upstream
        session replays the parked get after re-attach (the client's
        pending-async replay), so an outage shorter than the reconnect
        policy's deadline is invisible to the waiting local client.
        """
        self._enqueue(("get", context, attribute, timeout, bool(block), failed))

    def note_subscribe(self, context: str, pattern: str) -> None:
        """A local client subscribed: ensure the upstream aggregate exists."""
        with self._lock:
            key = (context, pattern)
            count = self._interest.get(key, 0)
            self._interest[key] = count + 1
        if count == 0:
            self._enqueue(("sub", context, pattern))

    def note_unsubscribe(self, context: str, pattern: str) -> None:
        """A live local subscription ended (unsubscribe or its connection
        closed); tear down the aggregate at zero."""
        with self._lock:
            key = (context, pattern)
            remaining = self._interest.get(key, 0) - 1
            if remaining > 0:
                self._interest[key] = remaining
                return
            if self._interest.pop(key, None) is None:
                return  # the context was dropped meanwhile
        self._enqueue(("unsub", context, pattern))

    def drop_context(self, context: str) -> None:
        """The local context was destroyed: detach upstream too.

        The interests go now, on the caller's thread — the store has
        already dropped the context's subscriptions, and a subscriber
        that re-creates the context must count as the first again.
        """
        with self._lock:
            for key in [k for k in self._interest if k[0] == context]:
                del self._interest[key]
        self._enqueue(("drop", context))

    def settle(self, timeout: float | None = 5.0) -> None:
        """Block until every action enqueued before this call has been
        processed — forwarded writes are acked upstream (deterministic
        tests; completions of in-flight async gets are NOT awaited)."""
        latch: Latch[bool] = Latch()
        try:
            self._actions.put(("settle", latch))
        except errors.ChannelClosedError:
            return
        latch.wait(timeout=timeout)

    def stop(self) -> None:
        """Drain the action queue, close every upstream session; idempotent."""
        self._actions.close()
        self._worker.join(timeout=10.0)

    def _enqueue(self, action: tuple) -> None:
        try:
            self._actions.put(action)
        except errors.ChannelClosedError:
            pass  # shutting down; the forward is abandoned

    # -- worker thread -------------------------------------------------------

    def _run(self) -> None:
        while True:
            try:
                action = self._actions.get()
            except errors.ChannelClosedError:
                break
            pending = [action]
            while len(pending) < COALESCE_LIMIT:
                try:
                    pending.append(self._actions.get_nowait())
                except (IndexError, errors.ChannelClosedError):
                    break
            self._process(pending)
        self._shutdown_sessions()

    def _process(self, pending: list[tuple]) -> None:
        i = 0
        while i < len(pending):
            j = i + 1
            if pending[i][0] == "write":
                while j < len(pending) and pending[j][0] == "write":
                    j += 1
            try:
                self._perform(pending[i:j])
            except Exception:  # noqa: BLE001 — one bad action must not end all forwarding
                _log.exception(
                    "%s: dropped %d upstream action(s)", self.origin, j - i
                )
                self.counters["forward_failures"].increment(j - i)
            i = j

    def _perform(self, run: list[tuple]) -> None:
        """One run of consecutive writes, or a single other action."""
        action = run[0]
        kind = action[0]
        if kind == "write":
            self._flush_writes(run)
        elif kind == "get":
            self._do_get(*action[1:])
        elif kind == "sub":
            self._do_sub(action[1], action[2])
        elif kind == "unsub":
            self._do_unsub(action[1], action[2])
        elif kind == "drop":
            self._drop_session(action[1])
        elif kind == "settle":
            action[1].open(True)

    def _flush_writes(self, writes: list[tuple]) -> None:
        """Send a run of queued writes, one batch frame per context, in
        queue order."""
        by_context: dict[str, list[dict[str, Any]]] = {}
        for _kind, context, op in writes:
            by_context.setdefault(context, []).append(op)
        for context, ops in by_context.items():
            client = self._session(context)
            if client is None:
                self.counters["forward_failures"].increment(len(ops))
                continue
            try:
                if len(ops) == 1 and ops[0]["op"] == "put":
                    client.put(
                        ops[0]["attribute"],
                        ops[0]["value"],
                        ephemeral=bool(ops[0].get("ephemeral", False)),
                        origin=self.origin,
                    )
                elif len(ops) == 1:
                    client.remove(ops[0]["attribute"], origin=self.origin)
                else:
                    with client.batch(origin=self.origin) as batch:
                        for op in ops:
                            if op["op"] == "put":
                                batch.put(
                                    op["attribute"],
                                    op["value"],
                                    ephemeral=bool(op.get("ephemeral", False)),
                                )
                            else:
                                batch.remove(op["attribute"])
                self.counters["forwards"].increment(len(ops))
            except errors.TdpError as e:
                self.counters["forward_failures"].increment(len(ops))
                _log.warning(
                    "%s: dropped %d forwarded write(s) of context %r: %s",
                    self.origin, len(ops), context, e,
                )
                self._drop_session(context)

    def _do_get(
        self,
        context: str,
        attribute: str,
        timeout: float | None,
        block: bool,
        failed: GetFailed,
    ) -> None:
        client = self._session(context)
        if client is None:
            failed(
                errors.ReconnectFailedError(
                    f"no upstream session to forward get({attribute!r})"
                )
            )
            return
        self.counters["forwarded_gets"].increment()

        def completion(value: Any, error: Exception | None, _arg: Any) -> None:
            if error is None:
                try:
                    self.store.fill(
                        attribute, value, context=context, writer=self.origin
                    )
                except errors.TdpError as e:
                    # Context destroyed meanwhile: its waiters were
                    # already cancelled and ``failed`` finds nothing.
                    error = e
            if error is not None:
                failed(error)

        try:
            client.async_get(attribute, completion, timeout=timeout, block=block)
        except errors.TdpError as e:
            failed(e)

    def _do_sub(self, context: str, pattern: str) -> None:
        client = self._session(context)
        if client is None:
            _log.warning(
                "%s: no upstream; aggregated sub %r deferred to session "
                "restore", self.origin, pattern,
            )
            return
        self._ensure_agg(context, pattern, client)

    def _ensure_agg(
        self, context: str, pattern: str, client: AttributeSpaceClient
    ) -> None:
        if (context, pattern) in self._agg_subs:
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
        self._agg_subs[(context, pattern)] = sub_id
        self.counters["aggregated_subs"].increment()
        obs.record(
            "federation.sub_agg", actor=self.origin,
            pattern=pattern, context=context,
        )

    def _do_unsub(self, context: str, pattern: str) -> None:
        sub_id = self._agg_subs.pop((context, pattern), None)
        upstream = self._sessions.get(context)
        if sub_id is None or upstream is None:
            return
        try:
            upstream.client.unsubscribe(sub_id)
        except errors.TdpError:
            pass  # session dying; the server reaps with the lease

    def _on_upstream_notify(self, notification: Notification, _arg: Any) -> None:
        """Apply a CASS-fanned change to the local store (pump thread).

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

    # -- sessions (worker thread only) ---------------------------------------

    def _session(self, context: str) -> AttributeSpaceClient | None:
        upstream = self._sessions.get(context)
        if upstream is not None:
            return upstream.client
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
        pump = spawn(
            self._pump, args=(client,), name=f"federation-{self.host}-pump"
        )
        self._sessions[context] = _Upstream(client, pump)
        self.counters["sessions_opened"].increment()
        # A recreated session (prior one exhausted its reconnect policy)
        # must win back the context's aggregated subscriptions;
        # within-session outages re-subscribe via the client's own ledger.
        with self._lock:
            patterns = [p for ctx, p in self._interest if ctx == context]
        for pattern in patterns:
            self._ensure_agg(context, pattern, client)
        return client

    def _drop_session(self, context: str) -> None:
        """Close and forget a context's session (forwarding failed
        terminally, or the context is gone) with the aggregates that rode
        it; the next action for the context opens — and re-subscribes — a
        fresh one.  The pump exits on its own once the event queue closes."""
        for key in [k for k in self._agg_subs if k[0] == context]:
            del self._agg_subs[key]
        upstream = self._sessions.pop(context, None)
        if upstream is None:
            return
        self.counters["sessions_dropped"].increment()
        try:
            upstream.client.close()
        except errors.TdpError:
            pass

    def _pump(self, client: AttributeSpaceClient) -> None:
        """Service one upstream session's event queue until it closes."""
        while True:
            if client.wait_event(timeout=0.25):
                client.service_events()
            elif client.events.closed:
                return

    def _shutdown_sessions(self) -> None:
        pumps = [upstream.pump for upstream in self._sessions.values()]
        for context in list(self._sessions):
            self._drop_session(context)
        try:
            join_all(pumps, timeout=10.0)
        except RuntimeError as e:
            _log.warning("%s: pump threads leaked at shutdown: %s", self.origin, e)
