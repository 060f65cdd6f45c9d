"""The flight ring: a bounded :class:`~repro.util.log.TraceRecorder` per process.

Every daemon records milestones (session lost/reestablished, lease
expiry, fault injections with their plan seed + site, sim process exits,
finished spans) into one process-global ring, and every protocol event
reaches it through :func:`repro.util.log.record_event`.  The ring is
fixed-size — recording never grows memory without bound — and cheap to
keep on in long runs, which is the point: when a test fails or a chaos
run goes sideways, the last few thousand events are already in memory.

Consumers: the pytest failure hook (``tests/conftest.py``) attaches the
tail of the ring to failed-test reports; ``python -m repro obs dump``
prints it; :mod:`repro.obs.export` writes it as JSON-lines.

Recording is a no-op while obs is disabled (:mod:`repro.obs.state`).
"""

from __future__ import annotations

from typing import Any

from repro.obs import state
from repro.util.log import TraceEvent, TraceRecorder

#: Default ring capacity (events retained per process).
RING_CAPACITY = 4096

_RING = TraceRecorder(capacity=RING_CAPACITY)


def recorder() -> TraceRecorder:
    """The process-global flight ring."""
    return _RING


def record(action: str, /, actor: str = "", **details: Any) -> TraceEvent | None:
    """Record into the process-global ring (no-op while obs is off)."""
    if not state.enabled():
        return None
    return _RING.record(actor, action, **details)
