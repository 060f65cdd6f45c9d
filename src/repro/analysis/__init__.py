"""Static analysis for the TDP reproduction: an AST-based invariant linter.

TDP's correctness rests on discipline the paper states in prose but the
type system cannot enforce: callbacks run from the client's own poll
loop and never from under a server lock (Section 3.3), process control
is role-gated (Sections 1, 2.3), and the simulated cluster runs on the
sim clock, not wall-clock.  The :mod:`repro.analysis` package encodes
those invariants as lint rules so they fail the test suite instead of
silently rotting.

The wire contract gets the same treatment: :mod:`.wireschema` infers the
full per-op frame schema from both sides of the protocol (client
encoders, server handlers, batch sub-op application, notify delivery),
the rules in :mod:`.rules.wire` check the two views for symmetry, and
``python -m repro manifests dump|check`` pins the result as the committed
``protocol.lock.json``, beside the guarded-by manifest ``guards.lock.json``.

Usage::

    python -m repro lint src/repro            # text report, exit 1 on findings
    python -m repro lint --list-rules         # the registered rules
    python -m repro manifests check           # both lock files match the tree

or programmatically::

    from repro.analysis import lint_paths
    findings = lint_paths(["src/repro"])

Per-line suppression: append ``# tdp-lint: off(rule-name)`` to the
offending line.  A directive on a line of its own disables the rule(s)
for the whole file.  ``# tdp-lint: off`` with no rule list suppresses
every rule.
"""

from __future__ import annotations

from repro.analysis.core import (
    Finding,
    ModuleSource,
    ProgramRule,
    Rule,
    all_rules,
    get_rule,
)
from repro.analysis.engine import lint_modules, lint_paths

__all__ = [
    "Finding",
    "ModuleSource",
    "ProgramRule",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_modules",
    "lint_paths",
]
