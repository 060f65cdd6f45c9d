"""Attribute space client: the daemon-side endpoint of a LASS/CASS session.

Provides both the blocking primitives of the paper (``put``/``get``) and
the asynchronous ones (``async_get``/``async_put``) with the
service-at-a-safe-point delivery model of Section 3.3: completions and
subscription notifications are queued, the queue doubles as the
"descriptor" a daemon polls, and callbacks run only inside
:meth:`service_events`, never from internal threads.

Sessions can also be **reconnecting**: constructed with a ``dial``
callable (or via :meth:`AttributeSpaceClient.connect`), the client
treats a dead channel as an outage rather than the end of the world.
The receive thread re-dials under a :class:`ReconnectPolicy` (seeded
exponential backoff with jitter and a deadline), re-runs the attach
handshake presenting its session token so the server resumes the lease,
re-establishes every subscription from the client-side ledger, and
replays in-flight requests with their original request ids — the
server's lease-scoped reply cache makes the replay at-most-once.
Callers observe a ``session.reestablished`` event instead of a
:class:`~repro.errors.SpaceClosedError`; only when the policy is
exhausted do pending calls fail, with
:class:`~repro.errors.ReconnectFailedError`.
"""

from __future__ import annotations

import random
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import errors, obs
from repro.attrspace import protocol
from repro.attrspace.notify import Notification
from repro.attrspace.store import DEFAULT_CONTEXT
from repro.net.address import Endpoint
from repro.transport.base import Channel, Transport
from repro.util.ids import IdAllocator
from repro.util.log import get_logger
from repro.util.sync import Latch, WaitableQueue, tracked_lock
from repro.util.threads import spawn

_log = get_logger("attrspace.client")

#: Callback signature for async completions: (value_or_none, error_or_none, arg)
AsyncCallback = Callable[[Any, Exception | None, Any], None]
#: Callback signature for subscriptions: (Notification, arg)
NotifyCallback = Callable[[Notification, Any], None]
#: Callback signature for session lifecycle events: (event_record,)
SessionCallback = Callable[[dict[str, Any]], None]

#: How long one handshake round-trip may take during reconnection.
_HANDSHAKE_TIMEOUT = 10.0


@dataclass(frozen=True)
class ReconnectPolicy:
    """Backoff schedule for session re-establishment.

    Delays grow geometrically from ``base_delay`` by ``multiplier`` up
    to ``max_delay``, each perturbed by up to ``±jitter`` (fractional)
    so a cluster of clients severed together does not re-dial in
    lockstep.  Recovery is abandoned when ``deadline`` seconds have
    elapsed since the outage began or ``max_attempts`` dials have
    failed, whichever comes first.  ``seed`` pins the jitter sequence
    for deterministic tests.
    """

    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    deadline: float | None = 30.0
    max_attempts: int | None = None
    seed: int | None = None

    def delays(self) -> "Any":
        """Yield successive sleep durations (an infinite generator)."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        while True:
            spread = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield max(0.0, delay * spread)
            delay = min(delay * self.multiplier, self.max_delay)


@dataclass
class _PendingSync:
    """A blocking RPC awaiting its reply.

    ``replay`` marks requests safe to resend after a reconnect.  Attach,
    subscribe, and detach are not replayed: attach/subscribe are redone
    by the handshake itself (their latches are answered synthetically),
    and detach is handled by :meth:`AttributeSpaceClient.close`'s
    out-of-band fallback.
    """

    latch: Latch[dict]
    frame: dict[str, Any]
    replay: bool = True
    #: for in-flight subscribes: the local ledger id, so the reconnect
    #: handshake can answer the latch from the re-established ledger
    #: (kept client-side — the server never sees local ids)
    local_sub: int | None = None


@dataclass
class _PendingAsync:
    kind: str  # "get" | "put"
    attribute: str
    callback: AsyncCallback
    callback_arg: Any
    frame: dict[str, Any] = field(default_factory=dict)


@dataclass
class _SubEntry:
    """One ledger entry: everything needed to re-establish a subscription.

    ``frame`` is the subscribe request as first sent (minus ``req``); the
    reconnect handshake re-sends it verbatim, so an aggregated
    subscription (``OP_SUB_AGG``) gets its origin, epoch and one-frame-
    per-host dedup group back exactly as a plain one gets its pattern.
    """

    frame: dict[str, Any]
    callback: NotifyCallback
    callback_arg: Any
    server_id: int | None = None


@dataclass
class _Event:
    """One queued deliverable: an async completion or a notification."""

    invoke: Callable[[], None]
    description: str


class AttributeSpaceClient:
    """One daemon's session with one attribute space server.

    A client binds to a single *context* (the per-RT space of Section
    3.2); open a second client for a second context.  The constructor
    performs the ``attach`` handshake; :meth:`close` detaches.

    Pass ``dial`` (a zero-argument callable producing a fresh
    :class:`~repro.transport.base.Channel`) to make the session
    reconnecting; ``lease_ttl`` additionally asks the server for a
    session lease so replayed requests dedup and ephemeral attributes
    survive exactly as long as the session does.  The plain
    ``AttributeSpaceClient(channel)`` form keeps the original
    fail-on-disconnect behavior.
    """

    def __init__(
        self,
        channel: Channel,
        *,
        context: str = DEFAULT_CONTEXT,
        member: str | None = None,
        dial: Callable[[], Channel] | None = None,
        reconnect: ReconnectPolicy | None = None,
        lease_ttl: float | None = None,
    ):
        self._channel = channel
        self.context = context
        self.member = member if member is not None else f"client@{channel.local_host}"
        self._dial = dial
        self._reconnect = reconnect if reconnect is not None else ReconnectPolicy()
        # tdp-guard: _lease_ttl -> volatile
        # (adopted once from the attach/re-attach reply on whichever
        # thread ran the handshake; the hello builders read it racily
        # and tolerate either the requested or the granted value)
        self._lease_ttl = lease_ttl
        self._session = uuid.uuid4().hex
        self._req_ids = IdAllocator()
        self._sub_ids = IdAllocator()
        self._pending_sync: dict[int, _PendingSync] = {}
        self._pending_async: dict[int, _PendingAsync] = {}
        #: local sub id -> ledger entry (survives reconnects)
        self._subs: dict[int, _SubEntry] = {}
        #: server sub id -> local sub id (rebuilt on each reconnect)
        self._sub_routes: dict[int, int] = {}
        self._lock = tracked_lock("attrspace.client.AttributeSpaceClient._lock")
        self._closed = False
        self._conn_lost = False
        self._reconnecting = False
        self._wake = threading.Event()  # interrupts backoff on close
        #: append-only record of session.lost/reestablished/failed events
        self.session_log: list[dict[str, Any]] = []
        # tdp-guard: _session_cb -> volatile
        # (registration is a benign publish: an event racing with
        # set_session_callback may deliver to the previous callback)
        self._session_cb: SessionCallback | None = None
        #: the "descriptor": non-empty means tdp_service_events has work
        self.events: WaitableQueue[_Event] = WaitableQueue()
        self._receiver = spawn(self._recv_loop, name=f"attr-client-{self.member}")
        self._adopt_attach_reply(self._rpc(self._attach_frame(), replay=False))

    @classmethod
    def connect(
        cls,
        transport: Transport,
        src_host: str,
        endpoint: Endpoint,
        *,
        context: str = DEFAULT_CONTEXT,
        member: str | None = None,
        reconnect: ReconnectPolicy | None = None,
        lease_ttl: float | None = 30.0,
        connect_timeout: float = 10.0,
    ) -> "AttributeSpaceClient":
        """Open a *reconnecting* session: dial, attach, remember how.

        The returned client re-dials ``endpoint`` through ``transport``
        whenever its channel dies, under ``reconnect`` (defaults apply
        when ``None``), holding a server lease of ``lease_ttl`` seconds.
        """

        def dial() -> Channel:
            return transport.connect(src_host, endpoint, timeout=connect_timeout)

        return cls(
            dial(),
            context=context,
            member=member,
            dial=dial,
            reconnect=reconnect,
            lease_ttl=lease_ttl,
        )

    # -- plumbing -------------------------------------------------------------

    def _attach_frame(self) -> dict[str, Any]:
        frame: dict[str, Any] = {
            "op": protocol.OP_ATTACH,
            "context": self.context,
            "member": self.member,
        }
        if self._lease_ttl is not None:
            frame["session"] = self._session
            frame["lease_ttl"] = self._lease_ttl
        return frame

    def _adopt_attach_reply(self, reply: dict[str, Any]) -> None:
        """Validate the attach confirmation and adopt server lease terms.

        The server echoes the context it attached — a mismatch means the
        frames crossed sessions and nothing after this point can be
        trusted — and, for leased sessions, replies with the lease TTL
        it actually granted (it may clamp the requested one), which the
        client adopts as its own.
        """
        echoed = reply.get("context")
        if echoed is not None and str(echoed) != self.context:
            raise protocol.frame_error(
                f"server attached context {echoed!r}, requested {self.context!r}",
                frame=reply,
                op=protocol.OP_ATTACH,
            )
        granted = reply.get("lease_ttl")
        if granted is not None and self._lease_ttl is not None:
            self._lease_ttl = float(granted)

    def _register_sync(
        self, request: dict[str, Any], replay: bool, local_sub: int | None = None
    ) -> tuple[int, _PendingSync]:
        stamp_trace = obs.enabled()
        with self._lock:
            if self._closed:
                raise errors.SpaceClosedError("client closed")
            if self._conn_lost:
                raise errors.SpaceClosedError("attribute space connection lost")
            req = self._req_ids.next()
            frame = dict(request, req=req)
            if stamp_trace:
                # Stamped at registration, not send, so reconnect replays
                # carry the original context.
                obs.inject(frame)
            entry = _PendingSync(Latch(), frame, replay, local_sub)
            self._pending_sync[req] = entry
            return req, entry

    def _send_or_defer(self, frame: dict[str, Any]) -> None:
        """Transmit a registered frame, or leave it for the reconnector.

        During an outage the frame stays parked in the pending tables —
        the reconnector replays it once the session is back.  A send
        failure on a reconnecting session is likewise swallowed: the
        receive thread is about to notice the dead channel and recover
        (or exhaust the policy, failing the pending entry).
        """
        with self._lock:
            channel = None if self._reconnecting else self._channel
        if channel is None:
            return
        try:
            channel.send(frame)
        except errors.TdpError:
            if self._dial is None:
                raise

    def _rpc(
        self,
        request: dict[str, Any],
        timeout: float | None = 30.0,
        *,
        replay: bool = True,
        local_sub: int | None = None,
    ) -> dict[str, Any]:
        """Send a request and block for its reply."""
        started = time.perf_counter() if obs.enabled() else 0.0
        req, entry = self._register_sync(request, replay, local_sub)
        try:
            self._send_or_defer(entry.frame)
        except errors.TdpError:
            with self._lock:
                self._pending_sync.pop(req, None)
            raise errors.SpaceClosedError("attribute space connection lost") from None
        try:
            reply = entry.latch.wait(timeout=timeout)
        except errors.GetTimeoutError:
            # Drop the entry so the dict cannot grow unboundedly and a
            # late reply does not hit a dead latch.
            with self._lock:
                self._pending_sync.pop(req, None)
            raise
        if not reply.get("ok", False):
            protocol.raise_error(reply, op=request.get("op"))
        if started:
            obs.registry().histogram(
                f"attrspace.client.rpc.{request.get('op', 'op')}"
            ).observe(time.perf_counter() - started)
        return reply

    # -- receive / recovery ----------------------------------------------------

    def _recv_loop(self) -> None:
        while True:
            with self._lock:
                channel = self._channel
            try:
                while True:
                    message = channel.recv()
                    self._route(message)
            except errors.TdpError:
                pass
            with self._lock:
                done = self._closed
            if done or self._dial is None:
                self._fail_pending("space_closed", "connection lost")
                return
            if not self._reestablish():
                self._fail_pending(
                    "reconnect_failed",
                    "session re-establishment abandoned (policy exhausted)",
                )
                return

    def _reestablish(self) -> bool:
        """Dial + attach + resubscribe + replay; True on success.

        Runs on the receive thread (no reader is consuming the new
        channel yet, so the handshake can do direct request/reply I/O).
        """
        with self._lock:
            self._reconnecting = True
        self._session_event("session.lost", member=self.member)
        policy = self._reconnect
        started = time.monotonic()
        attempts = 0
        delays = policy.delays()
        while True:
            with self._lock:
                if self._closed:
                    return False
            if policy.max_attempts is not None and attempts >= policy.max_attempts:
                return False
            if (
                policy.deadline is not None
                and time.monotonic() - started >= policy.deadline
            ):
                return False
            attempts += 1
            channel: Channel | None = None
            try:
                channel = self._dial()  # type: ignore[misc]
                strays, resumed = self._handshake(channel)
            except errors.TdpError as e:
                if channel is not None:
                    channel.close()
                _log.info(
                    "%s: reconnect attempt %d failed: %s", self.member, attempts, e
                )
                self._wake.wait(next(delays))
                continue
            break
        self._adopt_channel(channel)
        obs.registry().counter("attrspace.client.reconnects").increment()
        for message in strays:
            self._route(message)
        self._session_event(
            "session.reestablished",
            member=self.member,
            attempts=attempts,
            resumed=resumed,
            outage=round(time.monotonic() - started, 6),
        )
        return True

    def _handshake(self, channel: Channel) -> tuple[list[dict[str, Any]], bool]:
        """Attach (resuming the lease) and re-establish every subscription.

        Returns (stray server pushes received mid-handshake, lease
        resumed?).  Strays — typically notifications from the freshly
        re-created subscriptions — are routed after the channel is
        adopted so their callbacks queue normally.
        """
        strays: list[dict[str, Any]] = []

        def call(frame: dict[str, Any]) -> dict[str, Any]:
            channel.send(frame)
            deadline = time.monotonic() + _HANDSHAKE_TIMEOUT
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise errors.GetTimeoutError("handshake reply timed out")
                message = channel.recv(timeout=remaining)
                if message.get("reply_to") == frame["req"]:
                    return message
                strays.append(message)

        attach = dict(self._attach_frame(), req=self._req_ids.next())
        reply = call(attach)
        if not reply.get("ok", False):
            protocol.raise_error(reply, op=protocol.OP_ATTACH)
        self._adopt_attach_reply(reply)
        resumed = bool(reply.get("resumed", False))

        with self._lock:
            ledger = list(self._subs.items())
        for local_id, entry in ledger:
            sub_reply = call(dict(entry.frame, req=self._req_ids.next()))
            if not sub_reply.get("ok", False):
                protocol.raise_error(sub_reply, op=protocol.OP_SUBSCRIBE)
            server_id = int(sub_reply["sub"])
            with self._lock:
                if entry.server_id is not None:
                    self._sub_routes.pop(entry.server_id, None)
                entry.server_id = server_id
                self._sub_routes[server_id] = local_id
        return strays, resumed

    def _adopt_channel(self, channel: Channel) -> None:
        """Swap the recovered channel in and replay in-flight requests.

        The swap, the flag clear, and the pending snapshot happen under
        one lock hold: every request registered before this moment is in
        the snapshot (and gets replayed); every one registered after
        sees the live channel and sends itself.  The overlap case — a
        caller that read the old channel just before the swap — at worst
        double-sends, which the server's lease dedup absorbs.
        """
        with self._lock:
            self._channel = channel
            self._reconnecting = False
            replay = [e.frame for e in self._pending_sync.values() if e.replay]
            replay += [e.frame for e in self._pending_async.values() if e.frame]
            # Attach/subscribe RPCs that were in flight when the channel
            # died were just redone by the handshake; answer them from it.
            synthetic: list[tuple[_PendingSync, dict[str, Any]]] = []
            for req, entry in list(self._pending_sync.items()):
                op = entry.frame.get("op")
                if op == protocol.OP_ATTACH:
                    reply = {"reply_to": req, "ok": True, "context": self.context}
                elif op in (protocol.OP_SUBSCRIBE, protocol.OP_SUB_AGG):
                    ledger_entry = self._subs.get(entry.local_sub)
                    if ledger_entry is None or ledger_entry.server_id is None:
                        continue
                    reply = {"reply_to": req, "ok": True, "sub": ledger_entry.server_id}
                else:
                    continue
                del self._pending_sync[req]
                synthetic.append((entry, reply))
        for entry, reply in synthetic:
            entry.latch.open(reply)
        for frame in sorted(replay, key=lambda f: f["req"]):
            try:
                channel.send(frame)
            except errors.TdpError:
                # The new channel died already; the receive loop will go
                # around again and the next recovery replays the rest.
                return

    def _session_event(self, kind: str, **info: Any) -> None:
        record: dict[str, Any] = {"event": kind, **info}
        self.session_log.append(record)
        obs.record(kind, actor=self.member, **info)
        _log.info("%s: %s", self.member, record)
        callback = self._session_cb
        if callback is not None:
            try:
                self.events.put(
                    _Event(invoke=lambda: callback(record), description=kind)
                )
            except errors.ChannelClosedError:
                pass

    def on_session_event(self, callback: SessionCallback | None) -> None:
        """Register a callback for session lifecycle events.

        Delivered through :meth:`service_events` like every other
        callback (safe-point discipline); the :attr:`session_log` list
        records the same events for polling-style consumers.
        """
        self._session_cb = callback

    def _route(self, message: dict[str, Any]) -> None:
        if message.get("op") == protocol.OP_NOTIFY:
            sub_id = message.get("sub")
            notification = Notification.from_wire(message)
            with self._lock:
                local = (
                    self._sub_routes.get(sub_id) if isinstance(sub_id, int) else None
                )
                entry = self._subs.get(local) if local is not None else None
            if entry is not None:
                callback, arg = entry.callback, entry.callback_arg
                if obs.enabled():
                    # The notify frame carries the putter's context; run
                    # the callback inside it so the subscriber's span
                    # joins the put's trace.
                    ctx = obs.extract(message)

                    def invoke(
                        callback=callback, arg=arg,
                        notification=notification, ctx=ctx,
                    ) -> None:
                        with obs.activate(ctx):
                            with obs.span(
                                "notify.callback",
                                actor=self.member,
                                attribute=notification.attribute,
                            ):
                                callback(notification, arg)

                else:
                    def invoke(
                        callback=callback, arg=arg, notification=notification
                    ) -> None:
                        callback(notification, arg)

                self.events.put(
                    _Event(
                        invoke=invoke,
                        description=f"notify {notification.attribute}",
                    )
                )
            return
        reply_to = message.get("reply_to")
        if not isinstance(reply_to, int):
            if obs.enabled():
                obs.record(
                    "client.unroutable", actor=self.member, frame=repr(message)[:512]
                )
            _log.warning("dropping unroutable message: %r", message)
            return
        with self._lock:
            sync = self._pending_sync.pop(reply_to, None)
            pending_async = self._pending_async.pop(reply_to, None)
        if sync is not None:
            sync.latch.open(message)
            return
        if pending_async is not None:
            self._queue_async_completion(pending_async, message)
            return
        _log.warning("reply for unknown request %s", reply_to)

    def _queue_async_completion(self, pending: _PendingAsync, reply: dict[str, Any]) -> None:
        error: Exception | None = None
        value: Any = None
        if reply.get("ok", False):
            value = reply.get("value") if pending.kind == "get" else None
        else:
            try:
                protocol.raise_error(reply)
            except Exception as e:  # noqa: BLE001 — captured for callback delivery
                error = e
        self.events.put(
            _Event(
                invoke=lambda: pending.callback(value, error, pending.callback_arg),
                description=f"async-{pending.kind} {pending.attribute}",
            )
        )

    def _fail_pending(self, error_type: str, message: str) -> None:
        """Recovery is over: fail sync waiters, queue async error completions."""
        with self._lock:
            self._conn_lost = True
            self._reconnecting = False
            sync = list(self._pending_sync.values())
            self._pending_sync.clear()
            asyncs = list(self._pending_async.values())
            self._pending_async.clear()
            closed = self._closed
        if sync or asyncs or (self._dial is not None and not closed):
            self._session_event("session.failed", reason=message)
        failure = {"ok": False, "error_type": error_type, "error": message}
        for entry in sync:
            entry.latch.open(failure)
        for pending in asyncs:
            self._queue_async_completion(pending, failure)
        self.events.close()

    # -- blocking API (paper Section 3.2) --------------------------------------

    def put(
        self,
        attribute: str,
        value: str,
        *,
        ephemeral: bool = False,
        origin: str | None = None,
    ) -> int:
        """Blocking put; returns the stored version number.

        ``ephemeral`` ties the value to this session: the server purges
        it when the member detaches or its lease expires.  ``origin``
        stamps federation provenance on the change (a LASS forwarding a
        local write sets its own origin id so the upstream server does
        not echo the notification back); ordinary clients leave it None.
        """
        frame: dict[str, Any] = {
            "op": protocol.OP_PUT,
            "context": self.context,
            "attribute": attribute,
            "value": value,
        }
        if ephemeral:
            frame["ephemeral"] = True
        if origin is not None:
            frame["origin"] = origin
        reply = self._rpc(frame)
        return int(reply["version"])

    def put_many(
        self,
        items: "Any",
        *,
        ephemeral: bool = False,
        origin: str | None = None,
    ) -> list[int]:
        """Batched blocking put: one round trip for many attributes.

        ``items`` is an iterable of ``(attribute, value)`` pairs or
        ``(attribute, value, ephemeral)`` triples (the triple form
        overrides the batch-wide ``ephemeral`` flag per item, so a
        heartbeat can ride along with durable values).  Returns the
        stored version numbers, positionally.  Raises the first sub-op's
        error, if any — later sub-ops are still applied first (the batch
        is a pipeline, not a transaction).
        """
        ops: list[dict[str, Any]] = []
        for item in items:
            if len(item) == 3:
                attribute, value, item_ephemeral = item
            else:
                attribute, value = item
                item_ephemeral = ephemeral
            op: dict[str, Any] = {
                "op": protocol.OP_PUT, "attribute": attribute, "value": value,
            }
            if item_ephemeral:
                op["ephemeral"] = True
            ops.append(op)
        if not ops:
            return []
        replies = self._batch_rpc(ops, origin=origin)
        versions: list[int] = []
        for sub_reply in replies:
            if not sub_reply.get("ok", False):
                protocol.raise_error(sub_reply, op=protocol.OP_PUT)
            versions.append(int(sub_reply["version"]))
        return versions

    def get_many(self, attributes: "Any") -> list[str]:
        """Batched non-blocking get: one round trip for many attributes.

        Returns the values positionally; raises the first absent
        attribute's :class:`~repro.errors.NoSuchAttributeError` (use
        :meth:`batch` when partial results are wanted).
        """
        ops = [
            {"op": protocol.OP_GET, "attribute": attribute}
            for attribute in attributes
        ]
        if not ops:
            return []
        replies = self._batch_rpc(ops)
        values: list[str] = []
        for sub_reply in replies:
            if not sub_reply.get("ok", False):
                protocol.raise_error(sub_reply, op=protocol.OP_GET)
            values.append(str(sub_reply["value"]))
        return values

    def batch(self) -> "_BatchBuilder":
        """Pipelining context manager: coalesce ops into one frame.

        Operations queued inside the ``with`` block return
        :class:`BatchResult` handles; the single ``OP_BATCH`` frame is
        sent on exit and the handles resolve then::

            with client.batch() as b:
                version = b.put("pid", "123")
                status = b.try_get("proc.123.status")
            print(version.value, status.value)

        Ordering: sub-ops apply in queue order, atomically with respect
        to concurrent readers (single store lock hold).  Partial
        failure: every handle resolves — failed ones to their error —
        and the block then raises the first error; inspect ``.error`` on
        the handles before letting it propagate if partial results
        matter.  Nothing is sent when the block exits via an exception.
        """
        return _BatchBuilder(self)

    def _batch_rpc(
        self, ops: list[dict[str, Any]], *, origin: str | None = None
    ) -> list[dict[str, Any]]:
        """Send one OP_BATCH frame; returns the positional reply list.

        ``origin`` (federation provenance, batch-wide) marks every sub-op's
        change as having been applied first on the named LASS.
        """
        frame: dict[str, Any] = {
            "op": protocol.OP_BATCH, "context": self.context, "ops": ops,
        }
        if origin is not None:
            frame["origin"] = origin
        reply = self._rpc(frame)
        replies = reply.get("replies")
        if not isinstance(replies, list) or len(replies) != len(ops):
            got = len(replies) if isinstance(replies, list) else replies
            raise protocol.frame_error(
                f"batch reply mismatch: sent {len(ops)} ops, got {got!r} replies",
                frame=reply,
                op=protocol.OP_BATCH,
            )
        return replies

    def get(self, attribute: str, timeout: float | None = None) -> str:
        """Blocking get: waits until the attribute exists.

        ``timeout`` bounds the wait (server-side timer); ``None`` waits
        indefinitely — the paradynd-waits-for-pid pattern of Section 4.3.
        """
        if timeout is not None and (
            isinstance(timeout, bool)
            or not isinstance(timeout, (int, float))
            or timeout < 0
        ):
            # Same validation the server applies; failing here saves the
            # round trip and catches in-process misuse (timeout=True,
            # timeout=-1) with a clear error.
            raise errors.ProtocolError(
                f"invalid get timeout {timeout!r}: "
                "must be a non-negative number or None"
            )
        reply = self._rpc(
            {
                "op": protocol.OP_GET,
                "context": self.context,
                "attribute": attribute,
                "block": True,
                "timeout": timeout,
            },
            timeout=None if timeout is None else timeout + 30.0,
        )
        return str(reply["value"])

    def try_get(self, attribute: str) -> str:
        """Non-blocking get; raises ``NoSuchAttributeError`` when absent."""
        reply = self._rpc(
            {"op": protocol.OP_GET, "context": self.context,
             "attribute": attribute, "block": False}
        )
        return str(reply["value"])

    def remove(self, attribute: str, *, origin: str | None = None) -> bool:
        frame: dict[str, Any] = {
            "op": protocol.OP_REMOVE, "context": self.context, "attribute": attribute,
        }
        if origin is not None:
            frame["origin"] = origin
        reply = self._rpc(frame)
        return bool(reply["existed"])

    def list_attributes(self) -> list[str]:
        reply = self._rpc({"op": protocol.OP_LIST, "context": self.context})
        return list(reply["attributes"])

    def snapshot(self) -> dict[str, str]:
        reply = self._rpc({"op": protocol.OP_SNAPSHOT, "context": self.context})
        return dict(reply["data"])

    def ping(self) -> dict[str, Any]:
        return self._rpc({"op": protocol.OP_PING})

    # -- asynchronous API (paper Section 3.2/3.3) -------------------------------

    def async_get(
        self,
        attribute: str,
        callback: AsyncCallback,
        callback_arg: Any = None,
        *,
        timeout: float | None = None,
        block: bool = True,
    ) -> None:
        """Non-blocking get; ``callback(value, error, arg)`` runs from
        :meth:`service_events` once the attribute is available.

        ``timeout`` bounds the server-side wait (the completion then
        carries a :class:`~repro.errors.GetTimeoutError`) — a LASS
        forwarding a client's blocking get passes the client's deadline
        through here so the upstream timer, not a local one, bounds the
        wait.  ``block=False`` makes the completion immediate (value or
        ``NoSuchAttributeError``).
        """
        frame: dict[str, Any] = {
            "op": protocol.OP_GET,
            "context": self.context,
            "attribute": attribute,
            "block": block,
        }
        if timeout is not None:
            frame["timeout"] = timeout
        self._send_async(
            _PendingAsync("get", attribute, callback, callback_arg), frame
        )

    def async_put(
        self, attribute: str, value: str, callback: AsyncCallback, callback_arg: Any = None
    ) -> None:
        """Non-blocking put with completion callback (same delivery rules)."""
        self._send_async(
            _PendingAsync("put", attribute, callback, callback_arg),
            {
                "op": protocol.OP_PUT,
                "context": self.context,
                "attribute": attribute,
                "value": value,
            },
        )

    def _send_async(self, pending: _PendingAsync, request: dict[str, Any]) -> None:
        stamp_trace = obs.enabled()
        with self._lock:
            if self._closed:
                raise errors.SpaceClosedError("client closed")
            if self._conn_lost:
                raise errors.SpaceClosedError("attribute space connection lost")
            req = self._req_ids.next()
            pending.frame = dict(request, req=req)
            if stamp_trace:
                obs.inject(pending.frame)
            self._pending_async[req] = pending
        self._send_or_defer(pending.frame)

    def subscribe(self, pattern: str, callback: NotifyCallback, callback_arg: Any = None) -> int:
        """Subscribe to puts/removes matching ``pattern`` in this context.

        Returns a *local* subscription id, stable across reconnects (the
        server-side id changes every time the session re-establishes its
        subscriptions; the ledger tracks the mapping).
        """
        return self._subscribe(
            self._sub_ids.next(),
            {
                "op": protocol.OP_SUBSCRIBE,
                "context": self.context,
                "pattern": pattern,
            },
            callback,
            callback_arg,
        )

    def subscribe_agg(
        self,
        pattern: str,
        callback: NotifyCallback,
        callback_arg: Any = None,
        *,
        origin: str,
        epoch: int = 0,
    ) -> int:
        """Aggregated subscription (federation, LASS->CASS sessions only).

        Same ledger semantics as :meth:`subscribe`, but the server joins
        the subscription to ``origin``'s fan-out dedup group — all of
        this host's aggregated subscriptions cost the upstream server one
        egress frame per event — and suppresses notifications whose
        change originated on ``origin`` itself.  ``epoch`` is the shard-
        map epoch this client routed by; a shard serving a different
        epoch refuses the subscription so the caller re-fetches the map.
        """
        local_id = self._sub_ids.next()
        return self._subscribe(
            local_id,
            {
                "op": protocol.OP_SUB_AGG,
                "context": self.context,
                "pattern": pattern,
                "agg": local_id,
                "origin": origin,
                "epoch": epoch,
            },
            callback,
            callback_arg,
        )

    def _subscribe(
        self,
        local_id: int,
        frame: dict[str, Any],
        callback: NotifyCallback,
        callback_arg: Any,
    ) -> int:
        """Enter ``frame`` in the ledger under ``local_id`` and send it."""
        entry = _SubEntry(frame, callback, callback_arg)
        with self._lock:
            self._subs[local_id] = entry
        try:
            reply = self._rpc(
                frame,
                replay=False,
                # Not a wire field: the reconnect handshake uses the
                # pending entry's local id to answer an in-flight
                # subscribe from the re-established ledger.
                local_sub=local_id,
            )
        except errors.TdpError:
            with self._lock:
                self._subs.pop(local_id, None)
            raise
        server_id = int(reply["sub"])
        with self._lock:
            # The handshake may already have bound this entry on a new
            # connection; only adopt the reply's id if it is current.
            if entry.server_id is None:
                entry.server_id = server_id
            self._sub_routes[entry.server_id] = local_id
        return local_id

    def shard_map(self) -> tuple[int, list[str]]:
        """Fetch the server's shard map: ``(epoch, ["host:port", ...])``.

        An unsharded server answers ``(0, [])`` — "I am the only shard".
        """
        reply = self._rpc({"op": protocol.OP_SHARDMAP})
        epoch = int(reply.get("epoch", 0))
        shards = reply.get("shards")
        return epoch, [str(s) for s in shards] if isinstance(shards, list) else []

    def unsubscribe(self, sub_id: int) -> bool:
        with self._lock:
            entry = self._subs.pop(sub_id, None)
            server_id = sub_id
            if entry is not None and entry.server_id is not None:
                server_id = entry.server_id
                self._sub_routes.pop(entry.server_id, None)
        reply = self._rpc({"op": protocol.OP_UNSUBSCRIBE, "sub": server_id})
        return bool(reply["removed"])

    # -- event servicing (paper Section 3.3) ------------------------------------

    def has_pending_events(self) -> bool:
        """True when :meth:`service_events` would run at least one callback.

        This is the library's version of "activity on the descriptor":
        a poll loop checks it (or blocks in :meth:`wait_event`) and then
        calls :meth:`service_events` at its safe point.
        """
        return len(self.events) > 0

    def wait_event(self, timeout: float | None = None) -> bool:
        """Block until an event is queued (or timeout); returns availability.

        The queued event is *not* consumed — like returning from
        ``poll()`` without reading the descriptor.
        """
        return self.events.wait_nonempty(timeout=timeout)

    def service_events(self, max_events: int | None = None) -> int:
        """Run queued callbacks in the caller's thread; returns the count.

        This is ``tdp_service_event``: "the callback function will be
        called at a well-known and (presumably) safe point."
        """
        count = 0
        while max_events is None or count < max_events:
            try:
                event = self.events.get_nowait()
            except (IndexError, errors.ChannelClosedError):
                break
            event.invoke()
            count += 1
        return count

    # -- lifecycle ---------------------------------------------------------------

    def close(self, *, detach: bool = True) -> None:
        """Detach from the context and drop the connection. Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            mid_outage = self._reconnecting or self._conn_lost
            channel = self._channel
        self._wake.set()  # interrupt any backoff sleep immediately
        if detach:
            if mid_outage:
                self._detach_out_of_band()
            else:
                try:
                    self._detach_via(channel)
                except errors.TdpError:
                    self._detach_out_of_band()
        channel.close()

    def _detach_frame(self) -> dict[str, Any]:
        frame: dict[str, Any] = {
            "op": protocol.OP_DETACH,
            "context": self.context,
            "member": self.member,
        }
        if self._lease_ttl is not None:
            frame["session"] = self._session
        return frame

    def _detach_via(self, channel: Channel) -> None:
        """Detach over an already-open channel (the common, fast path)."""
        latch: Latch[dict] = Latch()
        with self._lock:
            req = self._req_ids.next()
            self._pending_sync[req] = _PendingSync(latch, {}, replay=False)
        try:
            channel.send(dict(self._detach_frame(), req=req))
            latch.wait(timeout=5.0)
        finally:
            with self._lock:
                self._pending_sync.pop(req, None)

    def _detach_out_of_band(self) -> None:
        """Detach over a fresh dialed channel (outage-tolerant close).

        Without this, a close that races an outage would leak the
        membership until the lease expires.  Best-effort with a couple of
        retries; the lease sweeper remains the backstop.
        """
        if self._dial is None:
            return
        for _ in range(3):
            try:
                channel = self._dial()
            except errors.TdpError:
                return
            try:
                channel.send(dict(self._detach_frame(), req=self._req_ids.next()))
                channel.recv(timeout=5.0)
                return
            except errors.TdpError:
                continue
            finally:
                channel.close()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __enter__(self) -> "AttributeSpaceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BatchResult:
    """Deferred result of one op queued in a :meth:`~AttributeSpaceClient.batch`
    block; resolves when the block exits and the batch reply arrives."""

    _UNSET = object()

    def __init__(self, description: str):
        self._description = description
        self._value: Any = BatchResult._UNSET
        self.error: Exception | None = None

    @property
    def ready(self) -> bool:
        return self._value is not BatchResult._UNSET or self.error is not None

    @property
    def ok(self) -> bool:
        """Resolved without error?  (False while still pending, too.)"""
        return self._value is not BatchResult._UNSET

    @property
    def value(self) -> Any:
        """The op's result; raises its error, or RuntimeError if unsent."""
        if self.error is not None:
            raise self.error
        if self._value is BatchResult._UNSET:
            raise RuntimeError(
                f"batch result for {self._description} read before the "
                "batch block exited"
            )
        return self._value

    def __repr__(self) -> str:
        if self.error is not None:
            state = f"error={type(self.error).__name__}"
        elif self._value is BatchResult._UNSET:
            state = "pending"
        else:
            state = f"value={self._value!r}"
        return f"<BatchResult {self._description} {state}>"


class _BatchBuilder:
    """Collects ops inside a ``client.batch()`` block; sends on exit."""

    def __init__(self, client: AttributeSpaceClient):
        self._client = client
        self._ops: list[dict[str, Any]] = []
        self._results: list[tuple[BatchResult, Callable[[dict[str, Any]], Any]]] = []

    def _queue(
        self,
        op: dict[str, Any],
        description: str,
        parse: Callable[[dict[str, Any]], Any],
    ) -> BatchResult:
        result = BatchResult(description)
        self._ops.append(op)
        self._results.append((result, parse))
        return result

    def put(self, attribute: str, value: str, *, ephemeral: bool = False) -> BatchResult:
        """Queue a put; the result resolves to the stored version."""
        op: dict[str, Any] = {
            "op": protocol.OP_PUT, "attribute": attribute, "value": value,
        }
        if ephemeral:
            op["ephemeral"] = True
        return self._queue(
            op, f"put({attribute!r})", lambda r: int(r["version"])
        )

    def try_get(self, attribute: str) -> BatchResult:
        """Queue a non-blocking get; the result resolves to the value."""
        return self._queue(
            {"op": protocol.OP_GET, "attribute": attribute},
            f"try_get({attribute!r})",
            lambda r: str(r["value"]),
        )

    def remove(self, attribute: str) -> BatchResult:
        """Queue a remove; the result resolves to the existed flag."""
        return self._queue(
            {"op": protocol.OP_REMOVE, "attribute": attribute},
            f"remove({attribute!r})",
            lambda r: bool(r["existed"]),
        )

    def __len__(self) -> int:
        return len(self._ops)

    def __enter__(self) -> "_BatchBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None or not self._ops:
            return  # never send a half-built batch out of a failing block
        replies = self._client._batch_rpc(self._ops)
        first_error: Exception | None = None
        for (result, parse), sub_reply in zip(self._results, replies):
            if sub_reply.get("ok", False):
                result._value = parse(sub_reply)
                continue
            try:
                protocol.raise_error(sub_reply)
            except errors.TdpError as e:
                result.error = e
                if first_error is None:
                    first_error = e
        if first_error is not None:
            raise first_error
