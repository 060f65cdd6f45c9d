"""repro.obs — unified observability for every TDP daemon.

Three instruments behind one master switch (``TDP_OBS=1``, or
:func:`set_enabled` at runtime):

* **trace contexts** (:mod:`repro.obs.trace`) — ``(trace_id, span_id)``
  pairs allocated at each ``tdp_*`` entry point and piggybacked on
  attribute-space protocol frames, so one ``tdp_put`` is causally linked
  from the client through CASS/LASS handling to every notification
  delivery, across reconnect replays included;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and bounded
  histograms (p50/p95/p99) in per-process and per-daemon registries;
* **flight recorder** (:mod:`repro.obs.recorder`) — a fixed-size ring of
  structured events dumped on test failure and by
  ``python -m repro obs dump``.

Exporters (:mod:`repro.obs.export`) write JSON-lines and Chrome
``trace_event`` JSON (opens in ``about:tracing`` / Perfetto).

The disabled path is the design constraint: with ``TDP_OBS`` unset,
spans are a shared no-op singleton, histogram/recorder calls return
before touching any lock, and no per-call object is allocated — only
plain counters (daemon statistics with a testable contract) stay live.
"""

from repro.obs.state import ENV_VAR, enabled, set_enabled
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    all_registries,
    registry,
)
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    SpanStore,
    TraceContext,
    WIRE_KEY,
    activate,
    current,
    extract,
    inject,
    span,
    spans,
    store,
)
from repro.obs.recorder import record, recorder
from repro.obs import export

__all__ = [
    "ENV_VAR",
    "enabled",
    "set_enabled",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "all_registries",
    "registry",
    "NULL_SPAN",
    "Span",
    "SpanStore",
    "TraceContext",
    "WIRE_KEY",
    "activate",
    "current",
    "extract",
    "inject",
    "span",
    "spans",
    "store",
    "record",
    "recorder",
    "export",
    "reset",
]


def reset() -> None:
    """Clear process-global obs state: default-registry metrics, the span
    store, and the flight recorder (test/bench isolation).  Per-instance
    registries are untouched — they die with their owners."""
    registry().clear()
    store().clear()
    recorder().clear()
