"""Fault detection and notification (extension beyond the paper's scope).

The paper's interface list requires that "the RM must be able to detect
these failures [AP, RT, AS], respond to them, and perhaps communicate
their occurrence to the other entities", while noting a full fault model
is "ongoing work and beyond the scope of this paper".  We ship the
pragmatic subset that the interface list implies:

* **AP faults** via backend exit listeners (abnormal exit / signal);
* **RT and AS faults** via presence: a daemon puts one ephemeral
  ``presence.<entity>`` attribute when it joins, and the server removes
  it when the daemon's session ends — a detach, a closed unleased
  connection, or a lease that expired TTL after its cut.  A removal the
  RM did not expect (no ``unwatch`` first) is the fault;
* **propagation** via ``fault.<entity>`` attributes, so every TDP
  participant can subscribe to ``fault.*`` and react.

Not detected: a daemon that stays connected but goes silent.  The
session is the liveness contract, so a leased daemon is declared failed
its lease TTL after its connection dies, and never while it holds one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import errors
from repro.attrspace.notify import Notification
from repro.tdp.handle import TdpHandle
from repro.tdp.wellknown import Attr
from repro.util.log import get_logger
from repro.util.sync import tracked_lock

_log = get_logger("tdp.faults")


@dataclass(frozen=True)
class FaultRecord:
    entity_kind: str  # "ap" | "rt" | "as"
    entity_id: str
    reason: str


class FaultMonitor:
    """RM-side watcher: declares faults and publishes them to the space.

    ``watch_process`` covers the AP; ``watch`` covers RT/AS daemons.
    Detected faults are published as ``fault.<entity>`` attributes and
    recorded locally for the RM's own response logic.
    """

    def __init__(self, handle: TdpHandle):
        self._handle = handle
        self._lock = tracked_lock("tdp.faults.FaultMonitor._lock")
        #: entity_id -> the subscription on its presence
        self._watches: dict[str, int] = {}
        self.faults: list[FaultRecord] = []

    # -- AP monitoring ----------------------------------------------------------

    def watch_process(self, pid: int) -> None:
        """Declare a fault if the managed process exits abnormally."""
        control = self._handle.control
        if control is None:
            raise errors.HandleError("watch_process requires an RM handle")

        def on_exit(info) -> None:
            if info.exit_code not in (0, None):
                self._declare("ap", str(pid), f"abnormal exit code {info.exit_code}")

        control._backend.on_exit(pid, on_exit)

    # -- presence monitoring -------------------------------------------------------

    def watch(self, entity_kind: str, entity_id: str) -> None:
        """Declare a fault when ``entity_id``'s presence is removed.

        The declaration runs at the handle's safe point
        (``tdp_service_events``), like every other callback.  Only a
        removal after this call is seen.
        """

        def on_presence(notification: Notification, _arg) -> None:
            if notification.kind == "remove" and self._forget(entity_id):
                self._declare(entity_kind, entity_id, "presence removed")

        sub = self._handle.attrs.subscribe(Attr.presence(entity_id), on_presence)
        with self._lock:
            self._watches[entity_id] = sub

    def unwatch(self, entity_id: str) -> None:
        """Stop watching (clean shutdown is not a fault)."""
        self._forget(entity_id)

    def _forget(self, entity_id: str) -> bool:
        with self._lock:
            sub = self._watches.pop(entity_id, None)
        if sub is None:
            return False
        try:
            self._handle.attrs.unsubscribe(sub)
        except errors.TdpError:
            pass  # space gone: the subscription went with it
        return True

    # -- fault declaration -------------------------------------------------------------

    def _declare(self, kind: str, entity_id: str, reason: str) -> None:
        record = FaultRecord(entity_kind=kind, entity_id=entity_id, reason=reason)
        with self._lock:
            self.faults.append(record)
        _log.warning("fault: %s %s — %s", kind, entity_id, reason)
        try:
            self._handle.attrs.put(Attr.fault(entity_id), f"{kind}:{reason}")
        except errors.TdpError:
            pass

    def stop(self) -> None:
        """Unwatch every daemon still watched."""
        with self._lock:
            watched = list(self._watches)
        for entity_id in watched:
            self._forget(entity_id)
