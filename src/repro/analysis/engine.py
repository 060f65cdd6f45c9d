"""The lint engine: discover files, parse, run rules, filter suppressions."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.core import (
    Finding,
    ModuleSource,
    ProgramRule,
    Rule,
    all_rules,
)
from repro.analysis.suppress import SuppressionIndex

#: directories never descended into during discovery
_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", "build", "dist"}


def discover_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: set[Path] = set()
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(
                f for f in p.rglob("*.py")
                if not any(part in _SKIP_DIRS for part in f.parts)
            )
        elif p.suffix == ".py":
            candidates = [p]
        else:
            candidates = []
        for f in candidates:
            key = f.resolve()
            if key not in seen:
                seen.add(key)
                out.append(f)
    return out


def lint_modules(
    modules: Sequence[ModuleSource],
    rules: Sequence[Rule | ProgramRule] | None = None,
) -> list[Finding]:
    """Run the full battery — per-module then whole-program — over a
    parsed module set, honoring suppressions in every file."""
    if rules is None:
        rules = all_rules()
    per_module = [r for r in rules if isinstance(r, Rule)]
    program = [r for r in rules if isinstance(r, ProgramRule)]
    findings: list[Finding] = []
    indexes: dict[str, SuppressionIndex] = {}
    for module in modules:
        indexes[module.path] = SuppressionIndex.parse(module.text)
        for rule in per_module:
            for finding in rule.check(module):
                if not indexes[module.path].is_suppressed(finding.rule, finding.line):
                    findings.append(finding)
    module_list = list(modules)
    for prule in program:
        for finding in prule.check_program(module_list):
            index = indexes.get(finding.path)
            if index is None or not index.is_suppressed(finding.rule, finding.line):
                findings.append(finding)
    return sorted(findings)


def lint_paths(
    paths: Iterable[str | Path],
    *,
    rules: Sequence[Rule | ProgramRule] | None = None,
) -> list[Finding]:
    """Lint every .py file reachable from ``paths``; returns all findings.

    Unparseable files surface as a synthetic ``parse-error`` finding
    rather than an exception — a syntax error must fail the lint gate,
    not crash it.  Parsed modules additionally feed the whole-program
    passes (lock-order graph, protocol exhaustiveness).
    """
    findings: list[Finding] = []
    modules: list[ModuleSource] = []
    for path in discover_files(paths):
        try:
            modules.append(ModuleSource.parse(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as e:
            findings.append(
                Finding(
                    path=str(path),
                    line=getattr(e, "lineno", None) or 1,
                    col=1,
                    rule="parse-error",
                    message=f"could not parse: {e}",
                )
            )
    findings.extend(lint_modules(modules, rules))
    return sorted(findings)
