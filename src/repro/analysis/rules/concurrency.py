"""Whole-program lock-order rules: the static half of the sanitizer.

Both rules rebuild the lock graph from the lint invocation's module set
(cheap: one AST pass + a small fixpoint) and check it against the
hierarchy in :func:`repro.analysis.lockorder.active`:

* ``undeclared-lock-edge`` — an acquisition the manifest does not
  sanction: an undeclared lock key, a rank inversion, or a
  non-reentrant self-edge.
* ``lock-manifest-stale`` — the reverse direction of non-vacuity: a
  manifest key that matches no acquisition site found by the lock
  graph.  A renamed or deleted lock must take its declaration with it,
  or the dead entry (and its rank slot) silently stops meaning anything.

Fix by reordering the acquisitions (or narrowing a critical section so
the outgoing call moves outside the lock); declare genuinely new
nesting in lockorder.py; suppress only with a justification comment.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis import lockorder
from repro.analysis.core import Finding, ModuleSource, ProgramRule, register_program
from repro.analysis.lockgraph import build_lock_graph


@register_program
class UndeclaredLockEdgeRule(ProgramRule):
    name = "undeclared-lock-edge"
    description = (
        "lock acquisition not sanctioned by the declared hierarchy "
        "(analysis/lockorder.py): undeclared key, rank inversion, or "
        "non-reentrant self-edge"
    )

    def check_program(self, modules: list[ModuleSource]) -> Iterator[Finding]:
        graph = build_lock_graph(modules)
        hierarchy = lockorder.active()
        reported: set[str] = set()
        for key, path, line in graph.acquisitions:
            if not hierarchy.declared(key) and key not in reported:
                reported.add(key)
                yield self.finding_at(
                    path, line,
                    f"lock {key} is not declared in the lockorder manifest",
                )
        for (held, acquired), edge in sorted(graph.edges.items()):
            if hierarchy.may_acquire(held, acquired):
                continue
            if held == acquired:
                detail = "re-acquiring a non-reentrant lock deadlocks"
            elif not hierarchy.declared(held) or not hierarchy.declared(acquired):
                undeclared = acquired if not hierarchy.declared(acquired) else held
                if undeclared in reported:
                    continue  # key itself already reported above
                detail = f"{undeclared} is not declared in the manifest"
            else:
                detail = (
                    f"rank inversion: {acquired} (rank "
                    f"{hierarchy.rank(acquired)}) must be taken before "
                    f"{held} (rank {hierarchy.rank(held)})"
                )
            yield self.finding_at(
                edge.path, edge.line, f"{edge.describe()}: {detail}"
            )


@register_program
class LockManifestStaleRule(ProgramRule):
    name = "lock-manifest-stale"
    description = (
        "lockorder manifest key that matches no acquisition site in the "
        "whole-program lock graph — a renamed/removed lock left a dead "
        "declaration behind"
    )

    def check_program(self, modules: list[ModuleSource]) -> Iterator[Finding]:
        # Only meaningful when the module set contains the manifest
        # itself (whole-tree runs): a scoped lint of one daemon must not
        # conclude every other daemon's lock is gone.
        manifest_src = next(
            (m for m in modules if m.modname.endswith("analysis.lockorder")),
            None,
        )
        if manifest_src is None:
            return
        graph = build_lock_graph(modules)
        acquired = {key for key, _path, _line in graph.acquisitions}
        lines = manifest_src.text.splitlines()
        for key in sorted(lockorder.active().keys()):
            if key in acquired:
                continue
            line = next(
                (i for i, text in enumerate(lines, start=1) if key in text),
                1,
            )
            yield self.finding_at(
                manifest_src.path, line,
                f"manifest lock {key} matches no acquisition site; "
                f"delete the declaration or fix the key after the rename",
            )
