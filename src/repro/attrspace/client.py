"""Attribute space client: the daemon-side endpoint of a LASS/CASS session.

Two layers, one of everything in each:

* the **session layer** (:class:`_Session`) owns the channel, the
  reconnect/lease machine, the one table of in-flight requests and the
  subscribe ledger.  It owns no thread: the channel ``deliver``s each
  frame to :meth:`_Session._route`, on the sender's thread wherever the
  transport can (in memory, the server's reply opens the caller's latch
  directly), so a route only completes, queues or applies — never
  waits.  Everything that crosses
  the wire — a blocking RPC, an async send, the reconnect handshake,
  the detach of a closing session — is one :meth:`_Session.submit`
  (register, send) and, when the caller waits, one
  :meth:`_Session.call` (submit, await the ``reply_to``);
* the **RPC layer** (:class:`AttributeSpaceClient`) is the verbs: it
  builds frames, parses replies, and owns the event queue.  Completions
  and subscription notifications are queued there, the queue doubles as
  the "descriptor" a daemon polls (Section 3.3), and callbacks run only
  inside :meth:`AttributeSpaceClient.service_events`, never from
  internal threads — except a LASS's own ``subscribe_agg`` callbacks,
  which run where the frame is routed.

Sessions can be **reconnecting**: constructed with a ``dial`` callable
(or via :meth:`AttributeSpaceClient.connect`), the session treats a dead
channel as an outage rather than the end of the world.  A recovery
thread, started by the outage and gone with it, re-dials under a
:class:`ReconnectPolicy` (seeded exponential
backoff with jitter and a deadline), re-runs the attach handshake
presenting its session token so the server resumes the lease,
re-establishes every subscription in the ledger, and replays in-flight
requests with their original request ids — the server's lease-scoped
reply cache makes the replay at-most-once.  Callers observe a
``session.reestablished`` event instead of a
:class:`~repro.errors.SpaceClosedError`; only when the policy is
exhausted do pending calls fail, with
:class:`~repro.errors.ReconnectFailedError`.
"""

from __future__ import annotations

import contextlib
import random
import threading
import time
import uuid
from dataclasses import dataclass
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
#: How long a closing session waits for its detach to be confirmed.
_DETACH_TIMEOUT = 5.0


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
class _Pending:
    """One in-flight request: a row of the session's one pending table.

    ``complete`` is handed the reply, whoever produced it (the server,
    the reconnect machine, the end of the session): a blocking call's
    opens a latch, an async call's queues its callback event.
    """

    frame: dict[str, Any]
    complete: Callable[[dict[str, Any]], None]
    #: What a reconnect does with the request.  None: the frame is sent
    #: again as it is (the lease's reply cache makes that at-most-once).
    #: Attach and subscribe are bound to the connection, so the handshake
    #: redoes them itself; theirs returns the reply it obtained.
    redone: Callable[[], dict[str, Any]] | None = None


@dataclass
class _SubEntry:
    """One ledger entry: everything needed to re-establish a subscription.

    ``frame`` is the subscribe request as first sent (minus ``req``); the
    reconnect handshake re-sends it verbatim, so an aggregated
    subscription (``OP_SUB_AGG``) gets its origin and one-frame-per-host
    dedup group back exactly as a plain one gets its pattern.
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


def _ok(reply: dict[str, Any], op: Any) -> dict[str, Any]:
    """``reply``, or the server-side error it carries, raised."""
    if not reply.get("ok", False):
        protocol.raise_error(reply, op=op)
    return reply


class _Session:
    """Session layer: one channel, one pending table, one exchange.

    Knows requests only as frames with a ``req`` and replies only by
    their ``reply_to``; which verb a frame spells is the RPC layer's
    business.  The exceptions are the session's own lifecycle — attach,
    subscribe (the ledger), detach — which the reconnect machine has to
    redo and therefore has to own.
    """

    def __init__(
        self,
        channel: Channel,
        *,
        context: str,
        member: str,
        dial: Callable[[], Channel] | None,
        reconnect: ReconnectPolicy | None,
        lease_ttl: float | None,
        events: "WaitableQueue[_Event]",
    ):
        self._channel = channel
        self.context = context
        self.member = member
        self._dial = dial
        self._reconnect = reconnect if reconnect is not None else ReconnectPolicy()
        # tdp-guard: _lease_ttl -> volatile
        # (adopted once from the attach/re-attach reply on whichever
        # thread ran the handshake; the hello builders read it racily
        # and tolerate either the requested or the granted value)
        self._lease_ttl = lease_ttl
        self._token = uuid.uuid4().hex
        self._req_ids = IdAllocator()
        self._pending: dict[int, _Pending] = {}
        #: local sub id -> ledger entry (survives reconnects)
        self._subs: dict[int, _SubEntry] = {}
        #: server sub id -> local sub id (rebuilt on each reconnect)
        self._sub_routes: dict[int, int] = {}
        self._lock = tracked_lock("attrspace.client._Session._lock")
        self._closed = False
        self._conn_lost = False
        self._reconnecting = False
        self._wake = threading.Event()  # interrupts backoff on close
        #: append-only record of session.lost/reestablished/failed events
        self.log: list[dict[str, Any]] = []
        # tdp-guard: session_cb -> volatile
        # (registration is a benign publish: an event racing with
        # on_session_event may deliver to the previous callback)
        self.session_cb: SessionCallback | None = None
        self._events = events
        channel.deliver(self._route, self._lost, name=f"attr-client-{member}")
        reply = self.call(
            self._attach_frame(),
            redone=lambda: {"ok": True, "context": context},
        )
        _ok(reply, protocol.OP_ATTACH)
        self._adopt_attach_reply(reply)

    # -- the one exchange ------------------------------------------------------

    def submit(
        self,
        request: dict[str, Any],
        complete: Callable[[dict[str, Any]], None],
        *,
        redone: Callable[[], dict[str, Any]] | None = None,
        via: Channel | None = None,
    ) -> int:
        """Register ``request`` in the pending table and send it.

        The only way a request enters the table.  During an outage the
        frame stays parked there — the reconnector replays it once the
        session is back — and a send failure on a reconnecting session
        is likewise left to the recovery that the channel's close starts.
        Any other send failure takes the entry back out and raises: the
        caller hears of it here and nowhere else.

        ``via`` names the channel to use instead of the session's live
        one; only the session's own lifecycle traffic (handshake, detach)
        does, which is also why it is let through on a closed session.
        """
        stamp_trace = obs.enabled()
        with self._lock:
            channel = via
            if via is None:
                if self._closed:
                    raise errors.SpaceClosedError("client closed")
                if self._conn_lost:
                    raise errors.SpaceClosedError("attribute space connection lost")
                channel = None if self._reconnecting else self._channel
            req = self._req_ids.next()
            frame = dict(request, req=req)
            if stamp_trace:
                # Stamped at registration, not send, so reconnect replays
                # carry the original context.
                obs.inject(frame)
            self._pending[req] = _Pending(frame, complete, redone)
        if channel is not None:
            try:
                channel.send(frame)
            except errors.TdpError:
                if via is not None or self._dial is None:
                    self._forget(req)
                    raise errors.SpaceClosedError(
                        "attribute space connection lost"
                    ) from None
        return req

    def call(
        self,
        request: dict[str, Any],
        timeout: float | None = 30.0,
        *,
        redone: Callable[[], dict[str, Any]] | None = None,
        via: Channel | None = None,
    ) -> dict[str, Any]:
        """Submit ``request`` and block for the frame that answers it.

        Normally the live channel routes the reply here.  A channel that
        is not delivering (``via`` a freshly dialed one: the handshake,
        an out-of-band detach) is read by the caller until the reply
        turns up, everything else on it routed as usual.
        """
        served = via is None
        if not served:
            with self._lock:
                served = via is self._channel
        latch: Latch[dict[str, Any]] = Latch()
        req = self.submit(request, latch.open, redone=redone, via=via)
        try:
            if not served:
                deadline = None if timeout is None else time.monotonic() + timeout
                while not latch.is_open():
                    remaining = (
                        None if deadline is None else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise errors.GetTimeoutError("reply timed out")
                    self._route(via.recv(timeout=remaining))  # type: ignore[union-attr]
            return latch.wait(timeout=timeout)
        except errors.TdpError:
            # Drop the entry so the table cannot grow unboundedly and a
            # late reply does not hit a dead latch.
            self._forget(req)
            raise

    def _forget(self, req: int) -> None:
        with self._lock:
            self._pending.pop(req, None)

    # -- lease: attach / detach --------------------------------------------------

    def _attach_frame(self) -> dict[str, Any]:
        frame: dict[str, Any] = {
            "op": protocol.OP_ATTACH,
            "context": self.context,
            "member": self.member,
        }
        if self._lease_ttl is not None:
            frame["session"] = self._token
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

    def _detach_frame(self) -> dict[str, Any]:
        frame: dict[str, Any] = {
            "op": protocol.OP_DETACH,
            "context": self.context,
            "member": self.member,
        }
        if self._lease_ttl is not None:
            frame["session"] = self._token
        return frame

    def close(self, *, detach: bool = True) -> None:
        """Detach from the context and drop the connection. Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            mid_outage = self._reconnecting or self._conn_lost
            channel = self._channel
        self._wake.set()  # interrupt any backoff sleep immediately
        if detach and (mid_outage or not self._detach(channel)):
            self._detach_out_of_band()
        channel.close()

    def _detach(self, channel: Channel) -> bool:
        try:
            self.call(self._detach_frame(), _DETACH_TIMEOUT, via=channel)
        except errors.TdpError:
            return False
        return True

    def _detach_out_of_band(self) -> None:
        """Detach over a fresh dialed channel (outage-tolerant close).

        Without this, a close that races an outage would leak the
        membership until the lease expires.  Best-effort with a couple of
        retries; the server's lease expiry remains the backstop.
        """
        if self._dial is None:
            return
        for _ in range(3):
            try:
                channel = self._dial()
            except errors.TdpError:
                return
            try:
                if self._detach(channel):
                    return
            finally:
                channel.close()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # -- the subscribe ledger ----------------------------------------------------

    def establish(
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
            reply = self.call(
                frame, redone=lambda: {"ok": True, "sub": entry.server_id}
            )
            _ok(reply, frame["op"])
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

    def retire(self, local_id: int) -> int:
        """Drop a ledger entry; returns the server's id for it."""
        with self._lock:
            entry = self._subs.pop(local_id, None)
            if entry is None or entry.server_id is None:
                return local_id
            self._sub_routes.pop(entry.server_id, None)
            return entry.server_id

    # -- receive / recovery ----------------------------------------------------

    def _lost(self) -> None:
        """The live channel closed (its ``on_closed`` sink): a closed or
        non-reconnecting session fails what is in flight at once; a
        reconnecting one recovers on a thread that lives as long as the
        outage."""
        with self._lock:
            done = self._closed
        if done or self._dial is None:
            self._fail_pending("space_closed", "connection lost")
            return
        spawn(self._recover, name=f"attr-client-{self.member}")

    def _recover(self) -> None:
        """Re-establish, then hand the new channel its sinks and end."""
        if not self._reestablish():
            self._fail_pending(
                "reconnect_failed",
                "session re-establishment abandoned (policy exhausted)",
            )
            return
        with self._lock:
            channel = self._channel
        channel.deliver(self._route, self._lost, name=f"attr-client-{self.member}")

    def _reestablish(self) -> bool:
        """Dial + handshake until one takes or the policy gives up."""
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
                resumed = self._handshake(channel)
            except errors.TdpError as e:
                if channel is not None:
                    channel.close()
                _log.info(
                    "%s: reconnect attempt %d failed: %s", self.member, attempts, e
                )
                self._wake.wait(next(delays))
                continue
            break
        obs.registry().counter("attrspace.client.reconnects").increment()
        self._session_event(
            "session.reestablished",
            member=self.member,
            attempts=attempts,
            resumed=resumed,
            outage=round(time.monotonic() - started, 6),
        )
        return True

    def _handshake(self, channel: Channel) -> bool:
        """Attach, re-establish the ledger, swap ``channel`` in, replay.

        Runs on the recovery thread, which reads ``channel`` itself while
        it waits (:meth:`call`), so a notification from a subscription
        just re-created is routed in order; what arrives after the last
        read waits in the channel until :meth:`_recover` hands it to
        ``deliver``.  Returns whether the server resumed the lease.

        The ledger is walked, then the pending table replayed in request
        order, until a lock hold finds nothing left to cover or resend;
        that hold (or a replay send finding the channel dead) swaps the
        channel in and clears the flag.  Until then a new request parks
        in the table for a later round, so none overtakes a replayed
        one.  A caller that read the old channel just before the outage
        at worst double-sends, which the server's lease dedup absorbs.
        """
        reply = self.call(self._attach_frame(), _HANDSHAKE_TIMEOUT, via=channel)
        _ok(reply, protocol.OP_ATTACH)
        self._adopt_attach_reply(reply)
        covered: set[int] = set()
        replayed = 0  # every req at or below this has been resent
        while True:
            answered, replay = [], []
            with self._lock:
                ledger = [
                    (local_id, entry)
                    for local_id, entry in self._subs.items()
                    if local_id not in covered
                ]
                if not ledger:
                    if self._closed:
                        raise errors.SpaceClosedError("client closed")
                    fresh = sorted(
                        (req, pending)
                        for req, pending in self._pending.items()
                        if req > replayed
                    )
                    if not fresh:
                        self._channel = channel
                        self._reconnecting = False
                        break
                    replayed = fresh[-1][0]
                    for req, pending in fresh:
                        if pending.redone is None:
                            replay.append(pending.frame)
                        else:
                            # An attach/subscribe call in flight when the
                            # channel died was just redone; answer it.
                            del self._pending[req]
                            answered.append(
                                (pending, dict(pending.redone(), reply_to=req))
                            )
            for local_id, entry in ledger:
                sub_reply = self.call(entry.frame, _HANDSHAKE_TIMEOUT, via=channel)
                _ok(sub_reply, entry.frame["op"])
                server_id = int(sub_reply["sub"])
                with self._lock:
                    if entry.server_id is not None:
                        self._sub_routes.pop(entry.server_id, None)
                    entry.server_id = server_id
                    self._sub_routes[server_id] = local_id
                covered.add(local_id)
            for pending, synthetic in answered:
                pending.complete(synthetic)
            try:
                for frame in replay:
                    channel.send(frame)
            except errors.TdpError:
                # The new channel died already.  Swap it in all the same:
                # nothing overtakes on a dead channel, its ``deliver``
                # reports the close at once, and the next recovery
                # replays the rest.
                with self._lock:
                    self._channel = channel
                    self._reconnecting = False
                break
        return bool(reply.get("resumed", False))

    def _session_event(self, kind: str, **info: Any) -> None:
        record: dict[str, Any] = {"event": kind, **info}
        self.log.append(record)
        obs.record(kind, actor=self.member, **info)
        _log.info("%s: %s", self.member, record)
        callback = self.session_cb
        if callback is not None:
            self._queue(_Event(invoke=lambda: callback(record), description=kind))

    def _queue(self, event: _Event) -> None:
        """Queue ``event``; one for a queue closed under it is dropped."""
        try:
            self._events.put(event)
        except errors.ChannelClosedError:
            pass

    def _route(self, message: dict[str, Any]) -> None:
        """The channel's frame sink, on the sender's thread: it completes
        a latch, queues an event or, for an aggregated notification,
        applies the change to the LASS's store (which never waits on its
        upstream) — and never raises into the sender."""
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

                if entry.frame["op"] == protocol.OP_SUB_AGG:
                    # A LASS applying a CASS change to its own store is
                    # server-internal, not a tool's callback: the safe-
                    # point rule does not hold it back, and it runs here.
                    try:
                        invoke()
                    except Exception:  # noqa: BLE001 — never raise into the sender
                        _log.exception("%s: aggregated notify failed", self.member)
                else:
                    self._queue(
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
            pending = self._pending.pop(reply_to, None)
        if pending is None:
            _log.warning("reply for unknown request %s", reply_to)
            return
        pending.complete(message)

    def _fail_pending(self, error_type: str, message: str) -> None:
        """Recovery is over: every in-flight request completes with the error."""
        with self._lock:
            self._conn_lost = True
            self._reconnecting = False
            pending = list(self._pending.values())
            self._pending.clear()
            closed = self._closed
        if pending or (self._dial is not None and not closed):
            self._session_event("session.failed", reason=message)
        for entry in pending:
            entry.complete({"ok": False, "error_type": error_type, "error": message})
        self._events.close()


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
        self.context = context
        self.member = member if member is not None else f"client@{channel.local_host}"
        self._sub_ids = IdAllocator()
        #: the "descriptor": non-empty means tdp_service_events has work
        self.events: WaitableQueue[_Event] = WaitableQueue()
        self._session = _Session(
            channel,
            context=context,
            member=self.member,
            dial=dial,
            reconnect=reconnect,
            lease_ttl=lease_ttl,
            events=self.events,
        )

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

    def _rpc(
        self, request: dict[str, Any], timeout: float | None = 30.0
    ) -> dict[str, Any]:
        """Send a request and block for its reply; raises the reply's error."""
        started = time.perf_counter() if obs.enabled() else 0.0
        reply = _ok(self._session.call(request, timeout), request.get("op"))
        if started:
            obs.registry().histogram(
                f"attrspace.client.rpc.{request.get('op', 'op')}"
            ).observe(time.perf_counter() - started)
        return reply

    @property
    def session_log(self) -> list[dict[str, Any]]:
        """Append-only record of session.lost/reestablished/failed events."""
        return self._session.log

    def on_session_event(self, callback: SessionCallback | None) -> None:
        """Register a callback for session lifecycle events.

        Delivered through :meth:`service_events` like every other
        callback (safe-point discipline); the :attr:`session_log` list
        records the same events for polling-style consumers.
        """
        self._session.session_cb = callback

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
        session-scoped value can ride along with durable ones).  Returns the
        stored version numbers, positionally.  Raises the first sub-op's
        error, if any — later sub-ops are still applied first (the batch
        is a pipeline, not a transaction).
        """
        with self.batch(origin=origin) as b:
            results = [
                b.put(item[0], item[1],
                      ephemeral=item[2] if len(item) == 3 else ephemeral)
                for item in items
            ]
        return [result.value for result in results]

    def get_many(self, attributes: "Any") -> list[str]:
        """Batched non-blocking get: one round trip for many attributes.

        Returns the values positionally; raises the first absent
        attribute's :class:`~repro.errors.NoSuchAttributeError` (use
        :meth:`batch` when partial results are wanted).
        """
        with self.batch() as b:
            results = [b.try_get(attribute) for attribute in attributes]
        return [result.value for result in results]

    def batch(self, *, origin: str | None = None) -> "_BatchBuilder":
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
        ``origin`` (federation provenance, batch-wide) marks every
        sub-op's change as having been applied first on the named LASS.
        """
        return _BatchBuilder(self, origin)

    def _batch_rpc(
        self, ops: list[dict[str, Any]], *, origin: str | None = None
    ) -> list[dict[str, Any]]:
        """Send one OP_BATCH frame; returns the positional reply list."""
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
        self._send_async(frame, f"async-get {attribute}", callback, callback_arg)

    def async_put(
        self, attribute: str, value: str, callback: AsyncCallback, callback_arg: Any = None
    ) -> None:
        """Non-blocking put with completion callback (same delivery rules)."""
        self._send_async(
            {
                "op": protocol.OP_PUT,
                "context": self.context,
                "attribute": attribute,
                "value": value,
            },
            f"async-put {attribute}",
            callback,
            callback_arg,
        )

    def _send_async(
        self,
        request: dict[str, Any],
        description: str,
        callback: AsyncCallback,
        callback_arg: Any,
    ) -> None:
        """Submit ``request``; its reply becomes one queued callback event."""

        def complete(reply: dict[str, Any]) -> None:
            value, error = None, None
            try:
                value = _ok(reply, None).get("value")
            except Exception as e:  # noqa: BLE001 — captured for callback delivery
                error = e
            with contextlib.suppress(errors.ChannelClosedError):  # a sink never raises
                self.events.put(
                    _Event(lambda: callback(value, error, callback_arg), description)
                )

        self._session.submit(request, complete)

    def subscribe(self, pattern: str, callback: NotifyCallback, callback_arg: Any = None) -> int:
        """Subscribe to puts/removes matching ``pattern`` in this context.

        Returns a *local* subscription id, stable across reconnects (the
        server-side id changes every time the session re-establishes its
        subscriptions; the ledger tracks the mapping).
        """
        return self._session.establish(
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
    ) -> int:
        """Aggregated subscription (federation, LASS->CASS sessions only).

        Same ledger semantics as :meth:`subscribe`, but the server joins
        the subscription to ``origin``'s fan-out dedup group — all of
        this host's aggregated subscriptions cost the upstream server one
        egress frame per event — and suppresses notifications whose
        change originated on ``origin`` itself.  ``callback`` runs where
        the frame is routed (on the upstream's sending thread in memory),
        not from :meth:`service_events`, so it must never block.
        """
        local_id = self._sub_ids.next()
        return self._session.establish(
            local_id,
            {
                "op": protocol.OP_SUB_AGG,
                "context": self.context,
                "pattern": pattern,
                "agg": local_id,
                "origin": origin,
            },
            callback,
            callback_arg,
        )

    def unsubscribe(self, sub_id: int) -> bool:
        server_id = self._session.retire(sub_id)
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

    def wake(self) -> None:
        """Return every thread parked in :meth:`wait_event` (an event that does nothing)."""
        with contextlib.suppress(errors.ChannelClosedError):  # closed: none are parked
            self.events.extend([_Event(lambda: None, "wake")])  # extend notifies all

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
        self._session.close(detach=detach)

    @property
    def closed(self) -> bool:
        return self._session.closed

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
    """Collects ops inside a ``client.batch()`` block; sends on exit.

    The one place a batch sub-op is spelled and its sub-reply parsed.
    """

    def __init__(self, client: AttributeSpaceClient, origin: str | None):
        self._client = client
        self._origin = origin
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
        replies = self._client._batch_rpc(self._ops, origin=self._origin)
        first_error: Exception | None = None
        for (result, parse), op, sub_reply in zip(self._results, self._ops, replies):
            try:
                result._value = parse(_ok(sub_reply, op["op"]))
            except errors.TdpError as e:
                result.error = e
                if first_error is None:
                    first_error = e
        if first_error is not None:
            raise first_error
