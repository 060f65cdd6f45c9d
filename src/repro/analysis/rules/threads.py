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

from repro.analysis.core import Finding, ModuleSource, Rule, dotted_name, register

_SANCTIONED_MODULES = {"repro.util.threads"}


@register
class BareThread(Rule):
    name = "bare-thread"
    description = (
        "threading.Thread() outside repro.util.threads; use "
        "repro.util.threads.spawn (named, daemon, accounted)"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.modname in _SANCTIONED_MODULES:
            return
        imported_thread_directly = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "threading"
            and any(alias.name == "Thread" for alias in node.names)
            for node in ast.walk(module.tree)
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dn = dotted_name(node.func)
            if dn == "threading.Thread" or (
                imported_thread_directly and dn == "Thread"
            ):
                yield self.finding(
                    module,
                    node,
                    "bare threading.Thread() creation; use "
                    "repro.util.threads.spawn",
                )


@register
class RawTimer(Rule):
    name = "raw-timer"
    description = (
        "threading.Timer(); use Clock.call_later so timeouts follow "
        "the scenario clock and cost a heap entry, not a thread"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        imported_timer_directly = any(
            isinstance(node, ast.ImportFrom)
            and node.module == "threading"
            and any(alias.name == "Timer" for alias in node.names)
            for node in ast.walk(module.tree)
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dn = dotted_name(node.func)
            if dn == "threading.Timer" or (
                imported_timer_directly and dn == "Timer"
            ):
                yield self.finding(
                    module,
                    node,
                    "raw threading.Timer() creation; route delayed "
                    "callbacks through repro.util.clock.Clock.call_later",
                )
