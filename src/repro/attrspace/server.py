"""LASS / CASS: the attribute space server.

One server instance wraps an :class:`~repro.attrspace.store.AttributeStore`
and serves it over a transport listener.  Thread model: the listener's
``serve_loop`` — one serving thread per server, no per-connection
threads, on every transport — accepts, dispatches each frame and
reports closes.  Blocking GETs never park that thread: they register
store waiters whose completion callbacks send the reply from whichever
thread performed the matching PUT.

Every outbound frame (reply or notification push) is a bounded
``offer`` onto the connection's push-mode channel, so producers never
block on a peer: a put that fans out to a hundred subscribers costs one
encode and a hundred enqueues — each frame is the event's one encoded
body with its subscriber's ``sub`` spliced in.  The **slow-subscriber
policy** is explicit: a connection with ``OUTBOUND_QUEUE_LIMIT`` frames
unread (it stopped reading while notifications kept coming) is
disconnected — counted in the ``slow_subscriber_disconnects`` statistic
— rather than allowed to stall the put path.  Reconnecting clients recover through their session
lease like after any other disconnect.

Roles (paper Section 2.1): a **LASS** runs on each execution host,
started by the RM; the **CASS** runs on the front-end host, started by
the RM front-end.  The role only affects identification/diagnostics —
the protocol is identical, which is exactly the paper's design (clients
"can access the attribute space of its LASS or the CASS").

Federation is composition, not a second server: constructed with an
``upstream`` endpoint, the server owns a
:class:`~repro.attrspace.federation.LassFederation` and calls out to it
at four points, each skipped when there is no upstream — **applied**
(what succeeded locally, stamped with the host origin, is submitted
upstream before the local reply leaves), **miss** (a get the store
cannot answer parks the ordinary waiter and is forwarded with the
client's deadline; the upstream timer, not a local one, bounds it),
**subscribe/unsubscribe/connection-closed** (aggregation refcounts,
driven from ``conn.subscriptions``) and **purged** (a departing
member's ephemerals are removed upstream, a destroyed context dropped
there).
"""

from __future__ import annotations

import collections
import enum
import functools
import threading
from typing import Any, Callable

from repro import errors, obs
from repro.attrspace import protocol
from repro.attrspace.client import ReconnectPolicy
from repro.attrspace.federation import LassFederation
from repro.attrspace.notify import Notification
from repro.attrspace.store import DEFAULT_CONTEXT, AttributeStore
from repro.net.address import Endpoint
from repro.transport import framing
from repro.transport.base import Channel, Transport
from repro.util.clock import Clock, TimerHandle, WallClock
from repro.util.log import get_logger
from repro.util.sync import AtomicCounter, tracked_lock

_log = get_logger("attrspace.server")

#: Replies remembered per lease for at-most-once replay dedup.  256 is
#: far above any client's in-flight window (one recv thread replays at
#: most its pending tables, tens of entries).
_REPLY_CACHE_LIMIT = 256

#: Bound on one connection's unread outbound frames.  Generous for any
#: reading client, small enough that a stalled subscriber is cut off
#: long before its backlog costs real memory.
OUTBOUND_QUEUE_LIMIT = 512

#: Lease deadlines run on wall time even on a server whose gets time out
#: on a virtual clock: a lease measures how long a peer has been gone.
_LEASE_CLOCK = WallClock()


def _notify_frame(sub_id: int, notification: Notification) -> dict[str, Any]:
    """The notify push: its one definition.  ``sub`` comes right after
    the op, where a shared body splices each subscriber's own."""
    return {"op": protocol.OP_NOTIFY, "sub": sub_id, **notification.to_wire()}


class ServerRole(enum.Enum):
    LASS = "lass"  # Local Attribute Space Server (one per execution host)
    CASS = "cass"  # Central Attribute Space Server (front-end host)


class _SessionLease:
    """One client session's server-side continuity record.

    A lease outlives any single connection: a client that reconnects
    within the TTL presents the same session token, resumes the lease,
    and may replay in-flight requests — the reply cache and in-flight
    table make that replay at-most-once.  A lease whose connection has
    been dead for the TTL is *expired*: the member is detached from its
    contexts and its ephemeral attributes are purged.
    """

    def __init__(self, token: str, member: str, ttl: float):
        self.token = token
        self.member = member
        self.ttl = ttl
        self._contexts: set[str] = set()
        self.conn_id: int | None = None
        #: req id -> cached reply frame (insertion-ordered for trimming)
        self._replies: "collections.OrderedDict[int, dict[str, Any]]" = (
            collections.OrderedDict()
        )
        #: req id -> conn_id currently executing it
        self._inflight: dict[int, int] = {}
        self._lock = tracked_lock("attrspace.server._SessionLease._lock")

    def resume(self, conn_id: int, ttl: float) -> None:
        """Bind the lease to a (re)attaching connection."""
        with self._lock:
            self.conn_id = conn_id
            self.ttl = ttl

    def holder(self) -> int | None:
        """The conn_id currently bound to this lease (None if detached)."""
        with self._lock:
            return self.conn_id

    def granted_ttl(self) -> float:
        with self._lock:
            return self.ttl

    def add_context(self, context: str) -> None:
        with self._lock:
            self._contexts.add(context)

    def drop_context(self, context: str) -> bool:
        """Remove a context; returns True when no contexts remain."""
        with self._lock:
            self._contexts.discard(context)
            return not self._contexts

    def contexts(self) -> list[str]:
        with self._lock:
            return sorted(self._contexts)

    def cached_reply(self, req: int) -> dict[str, Any] | None:
        with self._lock:
            return self._replies.get(req)

    def cache_reply(self, req: int, frame: dict[str, Any]) -> None:
        with self._lock:
            self._inflight.pop(req, None)
            self._replies[req] = frame
            self._replies.move_to_end(req)
            while len(self._replies) > _REPLY_CACHE_LIMIT:
                self._replies.popitem(last=False)

    def begin(self, req: int, conn_id: int) -> int | None:
        """Claim ``req`` for execution; returns the current holder if any.

        A ``None`` return means this connection now owns the request.
        """
        with self._lock:
            holder = self._inflight.get(req)
            if holder is None:
                self._inflight[req] = conn_id
            return holder

    def steal(self, req: int, conn_id: int) -> None:
        """Reassign an in-flight request whose original connection died."""
        with self._lock:
            self._inflight[req] = conn_id


class _Connection:
    """Server-side state for one served (push-mode) client channel.

    Outbound frames are offered to the channel's bounded buffer, never
    written inline: the producer never blocks, and overflow is answered
    by the slow-subscriber policy, not silence.
    """

    def __init__(self, server: "AttributeSpaceServer", channel: Channel, conn_id: int):
        self.server = server
        self.channel = channel
        self.conn_id = conn_id
        self.peer = f"{channel.remote_host}#{conn_id}"
        # (context, attribute, waiter_id) for pending blocking gets, so we
        # can cancel them if this client disconnects.
        self.pending_waiters: set[tuple[str, str, int]] = set()
        #: server sub id -> the (context, pattern) it registered
        self.subscriptions: dict[int, tuple[str, str]] = {}
        #: context -> member name, for each context attached and not yet
        #: detached: what an unleased connection departs when it closes
        self.joined: dict[str, str] = {}
        self.timers: dict[int, TimerHandle] = {}
        # tdp-guard: lease -> volatile
        # (bound once during attach before any later op on this
        # connection dereferences it; the serving thread handles frames
        # serially and cross-thread readers treat None as "anonymous")
        self.lease: _SessionLease | None = None
        self.member: str | None = None

    @property
    def writer_id(self) -> str:
        """Attribution for puts: the lease member survives reconnects,
        so replays and ephemeral ownership stay stable; anonymous
        connections fall back to the per-connection peer label."""
        return self.member if self.member is not None else self.peer

    def send(self, message: dict[str, Any]) -> None:
        """Enqueue a frame on the channel; never blocks.

        A full buffer means the peer stopped reading while frames kept
        coming: the slow-subscriber policy disconnects it (with a stat)
        so the producer — typically a putter mid-fan-out — is never
        stalled by someone else's dead or wedged client.
        """
        lease = self.lease
        reply_to = message.get("reply_to")
        if lease is not None and isinstance(reply_to, int):
            # Cache BEFORE enqueue: if the connection dies with this
            # frame still queued, the client's replay of the request
            # must find the reply rather than re-execute a completed
            # operation.
            lease.cache_reply(reply_to, message)
        self.push(message)

    def push(self, message: dict[str, Any] | bytes) -> None:
        """Enqueue a frame, or one already encoded in the channel's
        codec, under the slow-subscriber policy."""
        try:
            if not self.channel.offer(message, OUTBOUND_QUEUE_LIMIT):
                self.server._disconnect_slow(self)
        except errors.ChannelClosedError:
            pass  # connection torn down; leased replies stay cached


class AttributeSpaceServer:
    """A running LASS or CASS bound to one endpoint."""

    def __init__(
        self,
        transport: Transport,
        host: str,
        *,
        port: int = 0,
        role: ServerRole = ServerRole.LASS,
        name: str | None = None,
        store: AttributeStore | None = None,
        local_only: bool = False,
        clock: Clock | None = None,
        upstream: Endpoint | None = None,
        reconnect: ReconnectPolicy | None = None,
        lease_ttl: float | None = 30.0,
    ):
        self.role = role
        self.host = host
        #: timebase for blocking-get timeouts: wall time by default; the
        #: sim's startds inject their cluster's VirtualClock so scenario
        #: runs cannot have wall-time timers firing under virtual time.
        self.clock = clock if clock is not None else WallClock()
        #: the paper's LASS access rule ("a process … cannot access the
        #: LASS's of other nodes"): when set, connections from any other
        #: host are refused at accept time.  Production LASSes (those the
        #: startd boots) enable this; it is off by default so tests can
        #: drive a server from anywhere.
        self.local_only = local_only
        self.store = store if store is not None else AttributeStore()
        self.name = name if name is not None else f"{role.value}@{host}"
        self._listener = transport.listen(host, port)
        #: the upstream collaborator (None = no upstream: every call-out
        #: below is skipped).  ``reconnect``/``lease_ttl`` configure its
        #: upstream sessions.  Built before serving starts: the first
        #: dispatched op may already need to forward.
        self.federation = (
            LassFederation(
                transport, host, upstream,
                store=self.store, reconnect=reconnect, lease_ttl=lease_ttl,
            )
            if upstream is not None
            else None
        )
        self._stopped = threading.Event()
        self._conn_ids = AtomicCounter()
        self._connections: dict[int, _Connection] = {}
        self._conn_lock = tracked_lock("attrspace.server.AttributeSpaceServer._conn_lock")
        #: session token -> lease; guarded by _lease_lock (never nested
        #: inside a lease's own lock)
        self._leases: dict[str, _SessionLease] = {}
        self._lease_lock = tracked_lock(
            "attrspace.server.AttributeSpaceServer._lease_lock"
        )
        #: session token -> the wall deadline armed when the lease's
        #: connection died; guarded by _lease_lock
        self._lease_expiries: dict[str, TimerHandle] = {}
        #: Per-server metrics registry: two servers in one process never
        #: share a counter, and ``obs dump`` names each server's series.
        self.metrics = obs.MetricsRegistry(self.name)
        #: Name -> counter view of the registry, kept for the historical
        #: ``server.stats["puts"].value`` contract (obs counters expose
        #: the same ``increment``/``value`` surface as AtomicCounter).
        self.stats = {
            key: self.metrics.counter(f"attrspace.server.{key}")
            for key in (
                "puts",
                "gets",
                "blocked_gets",
                "notifications",
                "connections",
                "resumed_sessions",
                "replayed_replies",
                "expired_leases",
                "slow_subscriber_disconnects",
            )
        }
        self._loop = self._listener.serve_loop(
            on_channel=self._admit,
            on_message=self._dispatch,
            on_closed=self._cleanup,
            name=f"{self.name}-loop",
        )
        _log.info("%s listening at %s", self.name, self.endpoint)

    # -- lifecycle -----------------------------------------------------------

    @property
    def endpoint(self) -> Endpoint:
        return self._listener.endpoint

    def stop(self) -> None:
        """Shut the server down: close the listener and every connection."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        # The loop tears every connection down on the serving thread
        # (the normal _cleanup each) before its join returns.
        self._loop.stop()
        self._listener.close()
        with self._lease_lock:
            expiries = list(self._lease_expiries.values())
            self._lease_expiries.clear()
            self._leases.clear()
        for timer in expiries:
            timer.cancel()
        if self.federation is not None:
            self.federation.stop()

    @property
    def connection_count(self) -> int:
        with self._conn_lock:
            return len(self._connections)

    # -- accept/serve ----------------------------------------------------------

    def _admit(self, channel: Channel) -> _Connection | None:
        """``on_channel`` hook (serving thread).

        Returns the connection token the loop passes back to
        ``_dispatch``/``_cleanup``, or ``None`` to refuse the peer.
        """
        if self.local_only and channel.remote_host != self.host:
            _log.info(
                "%s refusing non-local client from %s (LASS access rule)",
                self.name, channel.remote_host,
            )
            return None
        conn = _Connection(self, channel, self._conn_ids.increment())
        with self._conn_lock:
            if self._stopped.is_set():
                return None
            self._connections[conn.conn_id] = conn
        self.stats["connections"].increment()
        obs.record("conn.accept", actor=self.name, peer=conn.peer)
        return conn

    def _cleanup(self, conn: _Connection) -> None:
        with self._conn_lock:
            self._connections.pop(conn.conn_id, None)
        for timer in conn.timers.values():
            timer.cancel()
        for context, attribute, wid in list(conn.pending_waiters):
            self.store.cancel_waiter(context, attribute, wid)
        ended = self.store.subscriptions.unsubscribe_many(conn.subscriptions)
        if self.federation is not None:
            for sub_id in ended:
                self.federation.note_unsubscribe(*conn.subscriptions[sub_id])
        # Graceful: frames already queued on the channel still go out.
        conn.channel.close()
        # A lease is deliberately NOT released here: the whole point is
        # surviving the connection.  It expires TTL after this close
        # unless a successor connection resumes it first.  Without one,
        # the session ends with its connection: it departs every context
        # it still holds, exactly as its detach would have.
        if conn.lease is not None:
            self._arm_lease_expiry(conn.lease, conn.conn_id)
            return
        for context, member in conn.joined.items():
            try:
                self._depart(context, member, conn.writer_id)
            except errors.ContextError:
                pass  # context already destroyed

    def _disconnect_slow(self, conn: _Connection) -> None:
        """Slow-subscriber policy: cut off a connection whose outbound
        buffer overflowed rather than ever blocking a producer.

        Runs on the producer's thread (a putter mid-fan-out or the
        serving thread), so it only closes — the serving core reports
        the close and performs the normal :meth:`_cleanup`.
        """
        self.stats["slow_subscriber_disconnects"].increment()
        obs.record("conn.slow_disconnect", actor=self.name, peer=conn.peer)
        _log.warning(
            "%s: disconnecting %s: outbound queue full (%d frames unread)",
            self.name, conn.peer, OUTBOUND_QUEUE_LIMIT,
        )
        conn.channel.close()

    # -- request dispatch -----------------------------------------------------

    def _dispatch(self, conn: _Connection, request: dict[str, Any]) -> None:
        req = request.get("req")
        op = request.get("op")
        if not isinstance(req, int) or not isinstance(op, str):
            conn.send(
                protocol.error_reply(
                    req if isinstance(req, int) else -1,
                    protocol.frame_error("malformed request", frame=request),
                )
            )
            return
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            conn.send(protocol.error_reply(req, errors.ProtocolError(f"unknown op {op!r}")))
            return
        if conn.lease is not None and not self._begin_leased(conn, req):
            return
        if obs.enabled():
            # Join the client's trace: the frame carries the caller's
            # context, and the handler runs under a server-side span so
            # one tdp_put is followable client -> server -> deliveries.
            with obs.activate(obs.extract(request)):
                with obs.span(f"server.{op}", actor=self.name, peer=conn.peer):
                    self._invoke(handler, conn, req, op, request)
            return
        self._invoke(handler, conn, req, op, request)

    def _invoke(
        self,
        handler: "Callable[[_Connection, int, dict[str, Any]], None]",
        conn: _Connection,
        req: int,
        op: str,
        request: dict[str, Any],
    ) -> None:
        try:
            handler(conn, req, request)
        except errors.TdpError as e:
            conn.send(protocol.error_reply(req, e))
        except Exception as e:  # noqa: BLE001 — a handler bug must not kill the serve thread
            _log.exception("%s: handler _op_%s crashed", self.name, op)
            conn.send(
                protocol.error_reply(
                    req, protocol.frame_error(f"internal error: {e}", frame=request)
                )
            )

    def _begin_leased(self, conn: _Connection, req: int) -> bool:
        """At-most-once gate for requests on a leased connection.

        Replayed requests reuse their original req id, so the lease can
        recognize them: a cached reply is resent verbatim; a request
        still executing on a *live* sibling connection is dropped (the
        original execution will reply); a request stranded on a dead
        connection is stolen and re-executed (its only side effects — a
        parked blocking-get waiter — were cancelled with that
        connection).  Returns True when the handler should run.
        """
        lease = conn.lease
        assert lease is not None
        cached = lease.cached_reply(req)
        if cached is not None:
            self.stats["replayed_replies"].increment()
            conn.send(cached)
            return False
        holder = lease.begin(req, conn.conn_id)
        if holder is None:
            return True
        if holder == conn.conn_id:
            # Same connection, no cached reply: a duplicated frame for a
            # request still parked here (blocking get).  Drop it; the
            # parked completion will reply.
            return False
        with self._conn_lock:
            holder_alive = holder in self._connections
        if holder_alive:
            return False
        lease.steal(req, conn.conn_id)
        return True

    @staticmethod
    def _context_of(request: dict[str, Any]) -> str:
        ctx = request.get("context", DEFAULT_CONTEXT)
        if not isinstance(ctx, str) or not ctx:
            raise errors.ProtocolError(f"bad context field: {ctx!r}")
        return ctx

    # Individual operations ---------------------------------------------------

    def _op_ping(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        conn.send(protocol.ok_reply(req, role=self.role.value, name=self.name))

    def _op_attach(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        context = self._context_of(request)
        member = str(request.get("member", conn.peer))
        session = request.get("session")
        ttl = request.get("lease_ttl")
        resumed = False
        leased = (
            isinstance(session, str) and session
            and isinstance(ttl, (int, float)) and not isinstance(ttl, bool)
            and ttl > 0
        )
        if leased:
            lease, resumed = self._acquire_lease(str(session), member, float(ttl), conn)
            conn.lease = lease
            conn.member = member
            lease.add_context(context)
        self.store.attach(context, member)
        conn.joined[context] = member
        reply = protocol.ok_reply(req, context=context, resumed=resumed)
        if leased:
            # The granted TTL, which the client adopts (the request's
            # session token needs no echo: the client owns it already).
            reply["lease_ttl"] = float(ttl)
        conn.send(reply)

    def _acquire_lease(
        self, token: str, member: str, ttl: float, conn: _Connection
    ) -> tuple[_SessionLease, bool]:
        with self._lease_lock:
            lease = self._leases.get(token)
            resumed = lease is not None
            if lease is None:
                lease = _SessionLease(token, member, ttl)
                self._leases[token] = lease
            lease.resume(conn.conn_id, ttl)
            expiry = self._lease_expiries.pop(token, None)
        if expiry is not None:
            expiry.cancel()
        if resumed:
            self.stats["resumed_sessions"].increment()
            obs.record(
                "session.resumed", actor=self.name,
                token=token[:8], member=member,
            )
            _log.info(
                "%s: session %s resumed by %s on conn %d",
                self.name, token[:8], member, conn.conn_id,
            )
        return lease, resumed

    def _arm_lease_expiry(self, lease: _SessionLease, conn_id: int) -> None:
        """``conn_id``, the lease's connection, died: expire the lease
        TTL from now unless a successor connection resumes it first."""
        with self._lease_lock:
            if self._leases.get(lease.token) is not lease or lease.holder() != conn_id:
                return  # released, or already resumed elsewhere
            self._lease_expiries[lease.token] = _LEASE_CLOCK.call_later(
                lease.granted_ttl(),
                functools.partial(self._expire_if_dead, lease, conn_id),
            )

    def _expire_if_dead(self, lease: _SessionLease, conn_id: int) -> None:
        """The lease's deadline (wall timer thread): expiry is the
        deferred ``tdp_exit`` — the member is detached from every lease
        context and its ephemeral attributes are purged, so a crashed
        daemon cannot pin a context (or claim its presence) forever.
        A resume since ``conn_id`` died wins over expiry."""
        with self._lease_lock:
            if self._leases.get(lease.token) is not lease or lease.holder() != conn_id:
                return
            del self._leases[lease.token]
            self._lease_expiries.pop(lease.token, None)
        for context in lease.contexts():
            try:
                self._depart(context, lease.member, lease.member)
            except errors.ContextError:
                pass  # context already destroyed
        # Counted once its effect is visible: a reader woken by the count
        # finds the member's ephemeral values gone.
        self.stats["expired_leases"].increment()
        obs.record(
            "lease.expired", actor=self.name,
            token=lease.token[:8], member=lease.member,
        )
        _log.warning(
            "%s: lease %s (%s) expired %.3gs after its connection closed",
            self.name, lease.token[:8], lease.member, lease.granted_ttl(),
        )

    def _depart(self, context: str, member: str, writer: str) -> None:
        """``member`` leaves ``context`` (detach, closed connection or
        lease expiry) and takes the session-scoped values it stored as
        ``writer`` with it — upstream too: the purge forwards as
        removes, and a context that died here is dropped there."""
        purged = self.store.purge_ephemeral(context, writer)
        destroyed = self.store.detach(context, member)
        if self.federation is not None:
            for attribute in purged:
                self.federation.forward_remove(context, attribute)
            if destroyed:
                self.federation.drop_context(context)

    def _op_detach(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        context = self._context_of(request)
        member = str(request.get("member", conn.peer))
        conn.joined.pop(context, None)
        lease = conn.lease
        if lease is None:
            session = request.get("session")
            if isinstance(session, str):
                with self._lease_lock:
                    lease = self._leases.get(session)
        # The writer id this session's puts were stored under: the lease
        # member, found by token on an out-of-band detach too.
        self._depart(
            context, member, lease.member if lease is not None else conn.writer_id
        )
        expiry = None
        if lease is not None and lease.drop_context(context):
            with self._lease_lock:
                if self._leases.get(lease.token) is lease:
                    del self._leases[lease.token]
                    expiry = self._lease_expiries.pop(lease.token, None)
        if expiry is not None:
            expiry.cancel()  # detached over a fresh channel after a cut
        conn.send(protocol.ok_reply(req))

    def _origin_of(self, request: dict[str, Any]) -> str | None:
        """Federation provenance stamped on a local apply: this host's
        origin id when it forwards upstream, else the one a forwarded
        write carries (absent = local)."""
        if self.federation is not None:
            return self.federation.origin
        origin = request.get("origin")
        return origin if isinstance(origin, str) and origin else None

    def _op_put(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        context = self._context_of(request)
        attribute = str(request.get("attribute", ""))
        value = request.get("value")
        if not isinstance(value, str):
            raise errors.AttributeFormatError(f"value must be a string, got {type(value).__name__}")
        ephemeral = bool(request.get("ephemeral", False))
        sv = self.store.put(
            attribute,
            value,
            context=context,
            writer=conn.writer_id,
            ephemeral=ephemeral,
            origin=self._origin_of(request),
        )
        self.stats["puts"].increment()
        if self.federation is not None:
            self.federation.forward_put(context, attribute, value, ephemeral)
        conn.send(protocol.ok_reply(req, version=sv.version))

    def _publish_stats(self, context: str) -> None:
        """Refresh the ``tdp.stats.*`` attributes of ``context`` from the
        live counters, so a get of any of them reads current values
        through the space itself (the observability satellite of the
        standard-attribute list).  The upstream engine's counters ride
        the same surface as ``tdp.stats.federation.*``."""
        counters = list(self.stats.items())
        if self.federation is not None:
            counters += [
                (f"federation.{key}", counter)
                for key, counter in self.federation.counters.items()
            ]
        for key, counter in counters:
            self.store.put(
                f"{protocol.STATS_PREFIX}{key}",
                str(counter.value),
                context=context,
                writer=self.name,
            )

    @staticmethod
    def _validate_timeout(timeout: Any) -> float | None:
        """Reject anything but None or a non-negative real number.

        ``bool`` is explicitly banned (``timeout=True`` would otherwise
        arm a 1-second timer via ``isinstance(True, int)``), and a
        negative value is an error, not an accidental block-forever.
        """
        if timeout is None:
            return None
        if (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or timeout < 0
        ):
            raise errors.ProtocolError(
                f"invalid get timeout {timeout!r}: "
                "must be a non-negative number or None"
            )
        return float(timeout)

    def _op_get(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        context = self._context_of(request)
        attribute = str(request.get("attribute", ""))
        block = bool(request.get("block", True))
        timeout = self._validate_timeout(request.get("timeout"))
        self.stats["gets"].increment()
        upstream = self.federation
        if attribute.startswith(protocol.STATS_PREFIX):
            # Stats are host-local by design: a tdp.stats.* answer
            # describes the server the client is attached to.
            self._publish_stats(context)
            upstream = None

        if not block:
            try:
                value = self.store.try_get(attribute, context=context)
            except errors.NoSuchAttributeError as e:
                if upstream is None:
                    conn.send(protocol.error_reply(req, e))
                    return
                # A miss upstream may answer: park like a blocking get.
            else:
                conn.send(protocol.ok_reply(req, value=value))
                return

        # Register a waiter whose completion sends the reply.
        waiter_key: list[tuple[str, str, int]] = []
        # The completion runs on whichever thread performs the matching
        # put; carry the getter's context over so the reply span joins
        # the getter's trace, not the putter's.
        req_ctx = obs.current() if obs.enabled() else None

        def send_result(value: str | None) -> None:
            if value is None:
                # Remove-kind wake: the context was destroyed while the
                # get was parked; the attribute can never arrive.
                conn.send(
                    protocol.error_reply(
                        req,
                        errors.ContextError(
                            f"context {context!r} destroyed while waiting "
                            f"for {attribute!r}"
                        ),
                    )
                )
                return
            conn.send(protocol.ok_reply(req, value=value))

        def complete(value: str | None) -> None:
            if waiter_key:
                conn.pending_waiters.discard(waiter_key[0])
            timer = conn.timers.pop(req, None)
            if timer is not None:
                timer.cancel()
            if req_ctx is not None:
                with obs.activate(req_ctx):
                    with obs.span(
                        "get.complete", actor=self.name, attribute=attribute
                    ):
                        send_result(value)
            else:
                send_result(value)

        wid = self.store.add_waiter(attribute, complete, context=context)
        if wid is None:
            return  # value was present; complete() already replied
        if block:
            self.stats["blocked_gets"].increment()
        key = (context, attribute, wid)
        waiter_key.append(key)
        conn.pending_waiters.add(key)

        def fail(error: Exception) -> None:
            """The wait ended without a value (timer, or upstream said
            no): answer only if nothing satisfied the waiter first."""
            if self.store.cancel_waiter(context, attribute, wid):
                conn.pending_waiters.discard(key)
                conn.timers.pop(req, None)
                conn.send(protocol.error_reply(req, error))

        if upstream is not None:
            # Miss: the client's deadline rides upstream with the
            # forwarded get, so the CASS-side timer is the single
            # authority on when the wait expires — no local timer races
            # it, and a reconnecting upstream session replays the forward
            # instead of inventing a timeout the client never asked for.
            upstream.forward_get(context, attribute, timeout, fail, block=block)
        elif timeout is not None:
            # On the server's clock: a wall timer for real deployments, a
            # virtual-time timer when a sim cluster injected its clock.
            conn.timers[req] = self.clock.call_later(
                timeout,
                lambda: fail(
                    errors.GetTimeoutError(
                        f"get({attribute!r}) timed out after {timeout}s"
                    )
                ),
            )

    def _op_remove(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        context = self._context_of(request)
        attribute = str(request.get("attribute", ""))
        existed = self.store.remove(
            attribute, context=context, origin=self._origin_of(request)
        )
        if self.federation is not None:
            # Forward regardless of the local result: the attribute may
            # exist upstream without ever having been cached here.
            self.federation.forward_remove(context, attribute)
        conn.send(protocol.ok_reply(req, existed=existed))

    def _op_list(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        context = self._context_of(request)
        conn.send(protocol.ok_reply(req, attributes=self.store.list_attributes(context=context)))

    def _op_snapshot(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        context = self._context_of(request)
        conn.send(protocol.ok_reply(req, data=self.store.snapshot(context=context)))

    def _subscribe(
        self,
        conn: _Connection,
        context: str,
        pattern: str,
        *,
        origin: str | None,
        span: str,
    ) -> int:
        """Register one subscription pushing to ``conn``; returns its id.
        ``origin`` (aggregated subscriptions) names the subscribing host:
        deliveries of its own changes are suppressed and all its
        subscriptions share one fan-out dedup group."""
        codec = conn.channel.codec  # None: in memory, nothing is encoded
        # this subscription's encoded ``sub``, set once its id is known
        sub_field = b""

        def deliver(sub_id: int, notification: Notification) -> None:
            if origin is not None and notification.origin == origin:
                return  # echo suppression: the origin host already has it
            self.stats["notifications"].increment()
            traced = obs.enabled()
            if traced or codec is None:
                # A frame of its own: in memory nothing is encoded, and a
                # traced push carries its own context.
                frame = _notify_frame(sub_id, notification)
                if not traced:
                    conn.push(frame)
                    return
                # Delivery runs on the putter's thread under its span, so
                # this span (and the context injected into the push) hangs
                # off the originating put's trace.
                with obs.span(
                    span,
                    actor=self.name,
                    attribute=notification.attribute,
                    sub=sub_id,
                ):
                    obs.inject(frame)
                    conn.send(frame)
                return
            # One encode per event and codec: every subscriber's frame
            # is the event's shared body with its own ``sub`` spliced in.
            body = notification.bodies.get(codec)
            if body is None:
                body = notification.bodies[codec] = framing.SharedBody(
                    _notify_frame(sub_id, notification), "sub", codec
                )
            # (a publish may race the subscribe to its first delivery)
            conn.push(body.frame(sub_field or protocol.encode_field("sub", sub_id, codec)))

        sub_id = self.store.subscriptions.subscribe(
            context, pattern, deliver, group=origin
        )
        if codec is not None:
            sub_field = protocol.encode_field("sub", sub_id, codec)
        conn.subscriptions[sub_id] = (context, pattern)
        if self.federation is not None:
            self.federation.note_subscribe(context, pattern)
        return sub_id

    def _op_subscribe(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        context = self._context_of(request)
        pattern = str(request.get("pattern", "*"))
        sub_id = self._subscribe(
            conn, context, pattern, origin=None, span="notify.deliver"
        )
        conn.send(protocol.ok_reply(req, sub=sub_id))

    def _op_unsubscribe(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        # Ownership check: sub ids come from a global allocator, so
        # without it any client could cancel any other client's
        # subscription by guessing small integers.
        sub_id = request.get("sub")
        removed = False
        if isinstance(sub_id, int) and sub_id in conn.subscriptions:
            removed = self.store.subscriptions.unsubscribe(sub_id)
            interest = conn.subscriptions.pop(sub_id)
            if removed and self.federation is not None:
                self.federation.note_unsubscribe(*interest)
        conn.send(protocol.ok_reply(req, removed=removed))

    def _op_sub_agg(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        """Aggregated subscription from a downstream LASS.

        Like ``subscribe``, with the federation contract on top: the
        frame names the subscribing host (``origin``) and the LASS-side
        aggregation id (``agg``, diagnostics), and all of one host's
        aggregated subscriptions share one fan-out dedup group — however
        many of its patterns overlap, a published event costs this
        server exactly one egress frame per host, which the LASS re-fans
        to its local subscribers.  Deliveries whose notification
        originated on the subscribing host itself are suppressed (the
        origin already applied and published the change locally).
        """
        context = self._context_of(request)
        pattern = str(request.get("pattern", "*"))
        origin = str(request.get("origin", conn.peer))
        agg = request.get("agg")
        obs.record(
            "sub.aggregated", actor=self.name,
            origin=origin, agg=agg, pattern=pattern,
        )
        sub_id = self._subscribe(
            conn, context, pattern, origin=origin, span="notify.aggregate"
        )
        conn.send(protocol.ok_reply(req, sub=sub_id))

    def _op_batch(self, conn: _Connection, req: int, request: dict[str, Any]) -> None:
        """One frame, many ops: apply the sub-request list and answer
        with a positionally matched reply list.

        Sub-ops are applied by the store under a single lock hold; each
        sub-reply carries its own ``ok``/error fields, so a failed sub-op
        reports without aborting the ones after it (partial failure is
        per-position, never whole-batch).  Blocking gets are rejected
        per-op — a parked waiter inside a batch would stall the
        positional reply.
        """
        context = self._context_of(request)
        ops = request.get("ops")
        if not isinstance(ops, list):
            raise errors.ProtocolError(
                f"batch ops must be a list, got {type(ops).__name__}"
            )
        if any(
            isinstance(sub, dict)
            and sub.get("op") == protocol.OP_GET
            and str(sub.get("attribute", "")).startswith(protocol.STATS_PREFIX)
            for sub in ops
        ):
            self._publish_stats(context)
        results = self.store.apply_batch(
            ops,
            default_context=context,
            writer=conn.writer_id,
            origin=self._origin_of(request),
        )
        traced = obs.enabled()
        replies: list[dict[str, Any]] = []
        for sub, result in zip(ops, results):
            sub_op = sub.get("op") if isinstance(sub, dict) else None
            if traced:
                # Child span per sub-op under the server.batch span that
                # _dispatch opened, so one batch put fans out into
                # followable per-op nodes in the trace tree.
                with obs.span(
                    f"batch.{sub_op if isinstance(sub_op, str) else 'op'}",
                    actor=self.name,
                    attribute=(
                        str(sub.get("attribute", "")) if isinstance(sub, dict) else ""
                    ),
                ) as span_obj:
                    if isinstance(result, Exception):
                        span_obj.set_tag("error", type(result).__name__)
            if sub_op == protocol.OP_PUT and not isinstance(result, Exception):
                self.stats["puts"].increment()
            elif sub_op == protocol.OP_GET:
                self.stats["gets"].increment()
            if isinstance(result, Exception):
                replies.append(protocol.error_fields(result))
            else:
                replies.append({"ok": True, **result})
        if self.federation is not None:
            self.federation.forward_batch(
                context,
                [
                    sub for sub, result in zip(ops, results)
                    if not isinstance(result, Exception)
                ],
            )
        conn.send(protocol.ok_reply(req, replies=replies))
