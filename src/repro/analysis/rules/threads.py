"""bare-thread / raw-timer: thread and timer creation is funnelled.

The library is deliberately thread-based (daemons are threads), which is
exactly why ad-hoc ``threading.Thread(...)`` calls scattered across
modules are a liability: unnamed threads are undebuggable, non-daemon
threads hang interpreter shutdown, and there is no single place to add
diagnostics or accounting.  All creation funnels through
:func:`repro.util.threads.spawn`, the one sanctioned call site.

The same argument holds for ``threading.Timer``, with no sanctioned
site at all: a raw wall-clock timer in daemon code silently breaks
simulated time (a blocking-get timeout armed on the wall clock fires
mid-scenario regardless of the virtual clock) and costs a thread per
pending timeout, so delayed callbacks go through ``Clock.call_later``,
whose timers are entries on one deadline heap per timebase.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    ModuleSource,
    Rule,
    import_origins,
    register,
    resolve_name,
)


class _FunnelledCall(Rule):
    """A call of ``origin``, under any import alias, outside the
    ``sanctioned`` modules."""

    origin = ""
    sanctioned: tuple[str, ...] = ()
    message = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.modname in self.sanctioned:
            return
        origins = import_origins(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) \
                    and resolve_name(node.func, origins) == self.origin:
                yield self.finding(module, node, self.message)


@register
class BareThread(_FunnelledCall):
    name = "bare-thread"
    description = (
        "threading.Thread() outside repro.util.threads; use "
        "repro.util.threads.spawn (named, daemon, accounted)"
    )
    origin = "threading.Thread"
    sanctioned = ("repro.util.threads",)
    message = "bare threading.Thread() creation; use repro.util.threads.spawn"


@register
class RawTimer(_FunnelledCall):
    name = "raw-timer"
    description = (
        "threading.Timer(); use Clock.call_later so timeouts follow "
        "the scenario clock and cost a heap entry, not a thread"
    )
    origin = "threading.Timer"
    message = (
        "raw threading.Timer() creation; route delayed "
        "callbacks through repro.util.clock.Clock.call_later"
    )
