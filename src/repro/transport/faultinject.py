"""Deterministic fault injection over any transport.

The paper requires that "the RM must be able to detect these failures
[AP, RT, AS], respond to them" — and you cannot trust recovery code you
have never run.  This module wraps a :class:`~repro.transport.base.
Transport` (in-memory or TCP alike) with a **seeded fault plan** that
perturbs sends per channel:

* ``drop``   — the frame silently disappears (the channel stays up);
* ``delay``  — the frame is delivered after a pause;
* ``dup``    — the frame is delivered twice;
* ``sever``  — the frame is lost *and* the channel dies, as if the
  connection was cut mid-write.

Every decision comes from a per-channel ``random.Random`` seeded with
``(plan seed, channel sequence number)``, so a given seed replays the
same fault schedule run after run — chaos you can bisect.

Activation is either programmatic (build a :class:`FaultPlan`, wrap the
transport in :class:`FaultInjectTransport`) or environmental: set
``TDP_FAULTPLAN`` (e.g. ``seed:42`` or
``seed:7,sever:0.1,delay:0.2@0.005``) and pass transports through
:func:`from_env`.  By default only *outbound* (connect-side) channels
are perturbed — severing a server's push channel loses notifications
that no replay protocol can recover, while severing a client channel
exercises exactly the reconnect/replay machinery the attribute-space
session layer ships.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.errors import ChannelClosedError, ProtocolError
from repro.net.address import Endpoint
from repro.transport.base import Channel, Listener, Message, Transport
from repro.util.log import get_logger
from repro.util.sync import AtomicCounter, tracked_lock

_log = get_logger("transport.faultinject")

#: Environment variable consulted by :func:`from_env`.
ENV_VAR = "TDP_FAULTPLAN"

#: The four per-send actions a plan can inject.
ACTIONS = ("drop", "delay", "dup", "sever")

#: Which side(s) of a connection get the fault-injecting wrapper.
SCOPES = ("connect", "accept", "both")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, rate-based schedule of channel faults.

    Rates are per-send probabilities drawn from the channel's own seeded
    RNG.  ``script`` pins exact actions for tests: it maps
    ``(channel_seq, send_index)`` (both 0-based, counting channels in
    creation order and sends per channel) to an action name, and wins
    over the probabilistic rates for that send.
    """

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    sever_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.002
    #: "connect" (default), "accept", or "both" — which channel ends to wrap.
    scope: str = "connect"
    #: (channel_seq, send_index) -> action, overriding the rates.
    script: dict[tuple[int, int], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ValueError(f"scope must be one of {SCOPES}, got {self.scope!r}")
        for (_key, action) in self.script.items():
            if action not in ACTIONS:
                raise ValueError(f"unknown scripted action {action!r}")

    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        """Parse a ``TDP_FAULTPLAN`` spec string.

        Comma-separated ``key:value`` entries: ``seed:int``, ``drop:p``,
        ``dup:p``, ``sever:p``, ``delay:p@seconds``, ``scope:name``.  A
        spec naming only a seed gets the default chaos mix (severs plus
        small delays — the faults a reliable-channel stack can actually
        recover from).
        """
        fields: dict[str, Any] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if ":" not in part:
                raise ProtocolError(f"bad fault plan entry {part!r} in {spec!r}")
            key, _, value = part.partition(":")
            key = key.strip()
            value = value.strip()
            try:
                if key == "seed":
                    fields["seed"] = int(value)
                elif key == "drop":
                    fields["drop_rate"] = float(value)
                elif key == "dup":
                    fields["dup_rate"] = float(value)
                elif key == "sever":
                    fields["sever_rate"] = float(value)
                elif key == "delay":
                    prob, _, secs = value.partition("@")
                    fields["delay_rate"] = float(prob)
                    if secs:
                        fields["delay_seconds"] = float(secs)
                elif key == "scope":
                    fields["scope"] = value
                else:
                    raise ProtocolError(f"unknown fault plan key {key!r} in {spec!r}")
            except ValueError as e:
                raise ProtocolError(f"bad fault plan value {part!r}: {e}") from None
        if set(fields) <= {"seed", "scope"}:
            # Bare seed: the default recoverable-chaos mix.
            fields.setdefault("sever_rate", 0.04)
            fields.setdefault("delay_rate", 0.05)
            fields.setdefault("delay_seconds", 0.002)
        return FaultPlan(**fields)

    def wrap_side(self, side: str) -> bool:
        return self.scope == "both" or self.scope == side


class FaultInjectChannel(Channel):
    """A channel whose sends pass through the fault plan.

    Receives are never perturbed: every injected fault is modeled at the
    sender (where real networks lose, delay, and duplicate writes), so
    one wrapped end suffices to perturb one direction.
    """

    def __init__(
        self,
        inner: Channel,
        plan: FaultPlan,
        seq: int,
        counters: dict[str, obs.Counter],
    ):
        import random

        self._inner = inner
        self._plan = plan
        self.seq = seq
        self._counters = counters
        self._rng = random.Random(f"{plan.seed}:{seq}")
        self._send_index = 0
        self._lock = tracked_lock("transport.faultinject.FaultInjectChannel._lock")

    # -- fault decisions ------------------------------------------------------

    def _decide(self) -> str | None:
        """Pick the action for the next send (None = deliver normally)."""
        return self._decide_indexed()[0]

    def _decide_indexed(self) -> tuple[str | None, int]:
        """Decision plus the 0-based send index it applies to — the
        ``(channel_seq, send_index)`` pair is the fault's *site*, which
        with the plan seed fully identifies it for replay."""
        with self._lock:
            index = self._send_index
            self._send_index += 1
            scripted = self._plan.script.get((self.seq, index))
            if scripted is not None:
                return scripted, index
            p = self._plan
            if not (p.drop_rate or p.dup_rate or p.sever_rate or p.delay_rate):
                return None, index
            roll = self._rng.random()
            if roll < p.sever_rate:
                return "sever", index
            roll -= p.sever_rate
            if roll < p.drop_rate:
                return "drop", index
            roll -= p.drop_rate
            if roll < p.dup_rate:
                return "dup", index
            roll -= p.dup_rate
            if roll < p.delay_rate:
                return "delay", index
            return None, index

    def _count(self, action: str) -> None:
        counter = self._counters.get(action)
        if counter is not None:
            counter.increment()

    # -- Channel interface ----------------------------------------------------

    def send(self, message: Message) -> None:
        self._perturbed(self._inner.send, message)

    def offer(self, message: Message | bytes, maxsize: int | None) -> bool:
        """A served inner channel's bounded ``send``, same plan; an
        encoded frame passes through unchanged."""
        return self._perturbed(lambda m: self._inner.offer(m, maxsize), message)

    @property
    def codec(self) -> str | None:
        return self._inner.codec

    def _perturbed(self, transmit, message: Message | bytes) -> bool:
        """Run ``transmit(message)`` as the plan dictates; False only
        when ``transmit`` itself refused the frame (a full ``offer``)."""
        action, index = self._decide_indexed()
        if action is not None:
            self._count(action)
            obs.record(
                "fault.injected", actor="faultinject", action=action,
                seed=self._plan.seed, channel=self.seq, send_index=index,
            )
            if action == "drop":
                _log.debug("fault drop on channel %d", self.seq)
                return True
            if action == "sever":
                _log.info("fault sever on channel %d", self.seq)
                self._inner.close()
                raise ChannelClosedError(
                    f"injected sever on channel {self.seq} "
                    f"({self.local_host}->{self.remote_host})"
                )
            if action == "delay":
                time.sleep(self._plan.delay_seconds)
        accepted = transmit(message) is not False
        if action == "dup":
            transmit(message)  # a retransmission the receiver must absorb
        return accepted

    def recv(self, timeout: float | None = None) -> Message:
        return self._inner.recv(timeout=timeout)

    def deliver(self, on_message, on_closed, *, name: str) -> None:
        """The inner channel's push mode, unperturbed (faults are sends)."""
        self._inner.deliver(on_message, on_closed, name=name)

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed

    @property
    def local_host(self) -> str:
        return self._inner.local_host

    @property
    def remote_host(self) -> str:
        return self._inner.remote_host


class _FaultInjectListener(Listener):
    """Accept-side injection: every inbound channel comes up wrapped."""

    def __init__(self, transport: "FaultInjectTransport", inner: Listener):
        self._transport = transport
        self._inner = inner

    @property
    def endpoint(self) -> Endpoint:
        return self._inner.endpoint

    def serve_loop(self, *, on_channel, **handlers):
        """The inner serving core, every channel it hands up wrapped."""
        return self._inner.serve_loop(
            on_channel=lambda channel: on_channel(self._transport._wrap(channel)),
            **handlers,
        )

    def close(self) -> None:
        self._inner.close()

    @property
    def closed(self) -> bool:
        return self._inner.closed


class FaultInjectTransport(Transport):
    """Wraps a transport so its channels execute a :class:`FaultPlan`.

    Unknown attributes delegate to the wrapped transport, so callers
    that poke backend-specific surface (``.network`` on the in-memory
    transport, say) keep working against the wrapped object.
    """

    def __init__(self, inner: Transport, plan: FaultPlan):
        self._inner_transport = inner
        self.plan = plan
        self._seq = AtomicCounter()
        #: per-transport registry: chaos counts stay distinguishable when
        #: a test wraps several transports in one process
        self.metrics = obs.MetricsRegistry("faultinject")
        #: action name -> injection count (always live — chaos assertions
        #: run with or without TDP_OBS; obs counters keep the old
        #: AtomicCounter ``increment``/``value`` surface)
        self.fault_counts: dict[str, obs.Counter] = {
            action: self.metrics.counter(f"faults.{action}") for action in ACTIONS
        }

    @property
    def inner(self) -> Transport:
        return self._inner_transport

    def _wrap(self, channel: Channel) -> FaultInjectChannel:
        seq = self._seq.increment() - 1
        return FaultInjectChannel(channel, self.plan, seq, self.fault_counts)

    def listen(self, host: str, port: int = 0) -> Listener:
        listener = self._inner_transport.listen(host, port)
        if not self.plan.wrap_side("accept"):
            # Accept-side injection is off: nothing to wrap.  Connect-
            # side plans still perturb every channel end they wrap.
            return listener
        return _FaultInjectListener(self, listener)

    def connect(
        self, src_host: str, endpoint: Endpoint, timeout: float | None = None
    ) -> Channel:
        channel = self._inner_transport.connect(src_host, endpoint, timeout=timeout)
        if self.plan.wrap_side("connect"):
            return self._wrap(channel)
        return channel

    def injected_total(self) -> int:
        return sum(c.value for c in self.fault_counts.values())

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner_transport, name)


def from_env(transport: Transport, env_var: str = ENV_VAR) -> Transport:
    """Wrap ``transport`` when a fault plan is configured, else pass through.

    The activation point for seeded chaos runs: test fixtures and
    daemon bootstrap paths route their transports through here, and
    ``TDP_FAULTPLAN=seed:42`` turns the whole stack hostile without a
    code change.
    """
    spec = os.environ.get(env_var, "")
    if not spec:
        return transport
    return FaultInjectTransport(transport, FaultPlan.parse(spec))
