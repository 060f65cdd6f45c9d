"""``python -m repro lint`` — run the invariant linter from the shell.

Exit status: 0 when clean, 1 when findings exist, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.core import Finding, all_rules, get_rule
from repro.analysis.engine import lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="AST-based TDP invariant linter (lock discipline, "
        "sim-clock purity, attribute-name hygiene, thread hygiene)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--rules", metavar="NAME[,NAME...]",
        help="run only the named rules (comma-separated)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def render_text(findings: list[Finding]) -> str:
    """GCC-style one-line-per-finding report plus a summary tail."""
    lines = [f.format() for f in findings]
    if findings:
        by_rule: dict[str, int] = {}
        for f in findings:
            by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
        breakdown = ", ".join(f"{n} {rule}" for rule, n in sorted(by_rule.items()))
        lines.append("")
        lines.append(f"{len(findings)} finding(s): {breakdown}")
    else:
        lines.append("0 findings")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name:26s} {rule.description}")
        return 0

    rules = None
    if args.rules:
        try:
            rules = [get_rule(name.strip()) for name in args.rules.split(",") if name.strip()]
        except KeyError as e:
            print(f"error: {e.args[0]}", file=sys.stderr)
            return 2

    # A typo'd path must not report a clean tree.
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        for p in missing:
            print(f"error: no such file or directory: {p}", file=sys.stderr)
        return 2

    findings = lint_paths(args.paths, rules=rules)
    print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
