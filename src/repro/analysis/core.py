"""Core types of the lint framework: findings, parsed modules, the registry.

A :class:`Rule` inspects one :class:`ModuleSource` (path + text + parsed
AST) and yields :class:`Finding`s.  Rules register themselves with the
:func:`register` decorator; the engine iterates :func:`all_rules`.
Suppression is handled centrally by the engine (rules never need to look
at comments).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass
class ModuleSource:
    """A parsed module handed to every rule.

    ``modname`` is the dotted module path (``repro.attrspace.store``)
    when the file lies under a recognizable package root, else the stem;
    rules use it to scope themselves (e.g. wall-clock rules apply only
    under ``repro.sim``).
    """

    path: str
    text: str
    tree: ast.Module
    modname: str
    _docstring_nodes: set[int] = field(default_factory=set)

    @classmethod
    def parse(
        cls,
        path: str | Path,
        text: str | None = None,
        *,
        modname: str | None = None,
    ) -> "ModuleSource":
        """Parse a file (or ``text``) into a ModuleSource.

        ``modname`` overrides the derived dotted name — seeded-violation
        fixtures use this to place a temp file "inside" a scoped package
        like ``repro.sim``.
        """
        p = Path(path)
        if text is None:
            text = p.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(p))
        src = cls(
            path=str(p),
            text=text,
            tree=tree,
            modname=modname if modname is not None else derive_modname(p),
        )
        src._index_docstrings()
        return src

    def _index_docstrings(self) -> None:
        """Record the Constant nodes that are doc/bare strings.

        Attribute-literal rules must not fire on prose, so any string
        expression appearing as a statement is indexed here.
        """
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                    and isinstance(node.value.value, str):
                self._docstring_nodes.add(id(node.value))

    def is_docstring(self, node: ast.AST) -> bool:
        return id(node) in self._docstring_nodes

    def in_package(self, *prefixes: str) -> bool:
        """True when this module lies under any of the dotted prefixes."""
        return any(
            self.modname == p or self.modname.startswith(p + ".") for p in prefixes
        )


def derive_modname(path: Path) -> str:
    """Dotted module name from a file path, anchored at a package root.

    Walks up while ``__init__.py`` siblings exist, so both installed and
    in-tree layouts resolve (``src/repro/sim/kernel.py`` ->
    ``repro.sim.kernel``).  Files outside any package keep their stem,
    which is what seeded-violation fixtures in tests rely on.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.resolve().parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


class Rule:
    """Base class: subclass, set ``name``/``description``, implement check."""

    #: unique kebab-case identifier, used in reports and suppressions
    name: str = ""
    #: one-line summary shown by ``lint --list-rules``
    description: str = ""

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleSource, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.name,
            message=message,
        )


class ProgramRule:
    """A whole-program pass: sees every linted module at once.

    Per-module :class:`Rule`s cannot observe cross-module facts (a lock
    acquired in one daemon while messaging another, a protocol constant
    with no dispatch branch).  Program rules run after per-module rules
    over the full module set of one lint invocation; their findings are
    still attributed to concrete source locations, so line/file
    suppression works identically.
    """

    name: str = ""
    description: str = ""

    def check_program(self, modules: list[ModuleSource]) -> Iterator[Finding]:
        raise NotImplementedError

    def finding_at(self, path: str, line: int, message: str, col: int = 1) -> Finding:
        return Finding(path=path, line=line, col=col, rule=self.name, message=message)


_REGISTRY: dict[str, Rule] = {}
_PROGRAM_REGISTRY: dict[str, ProgramRule] = {}


def _register_into(rule, registry) -> None:
    if not rule.name:
        raise ValueError(f"rule {type(rule).__name__} has no name")
    if rule.name in _REGISTRY or rule.name in _PROGRAM_REGISTRY:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    registry[rule.name] = rule


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule (by instance) to the global registry."""
    _register_into(cls(), _REGISTRY)
    return cls


def register_program(cls: type[ProgramRule]) -> type[ProgramRule]:
    """Class decorator registering a whole-program rule."""
    _register_into(cls(), _PROGRAM_REGISTRY)
    return cls


def all_rules() -> list[Rule | ProgramRule]:
    """Every registered rule — per-module and program — sorted by name."""
    _ensure_rules_loaded()
    merged = {**_REGISTRY, **_PROGRAM_REGISTRY}
    return [merged[name] for name in sorted(merged)]


def get_rule(name: str) -> Rule | ProgramRule:
    _ensure_rules_loaded()
    if name in _REGISTRY:
        return _REGISTRY[name]
    if name in _PROGRAM_REGISTRY:
        return _PROGRAM_REGISTRY[name]
    known = ", ".join(sorted({**_REGISTRY, **_PROGRAM_REGISTRY}))
    raise KeyError(f"unknown rule {name!r} (known: {known})")


def _ensure_rules_loaded() -> None:
    # Importing the package registers every built-in rule exactly once.
    import repro.analysis.rules  # noqa: F401


def iter_calls(body: Iterable[ast.stmt]) -> Iterator[ast.Call]:
    """Yield every Call in ``body`` without descending into nested defs.

    Lock-scope rules need this: code inside a nested ``def``/``lambda``
    does not execute while the enclosing ``with lock`` is held.
    """
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def dotted_name(node: ast.AST) -> str | None:
    """Render Name/Attribute chains as ``a.b.c``; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_origins(tree: ast.AST) -> dict[str, str]:
    """Each local name an absolute import binds, mapped to the dotted
    name it stands for: ``import a.b`` binds ``a`` -> ``a``, ``import
    a.b as c`` binds ``c`` -> ``a.b``, ``from a import b as c`` binds
    ``c`` -> ``a.b``."""
    origins: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    origins[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    origins[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                origins[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return origins


def resolve_name(node: ast.AST, origins: dict[str, str]) -> str | None:
    """A Name/Attribute chain's dotted origin through ``origins`` (see
    :func:`import_origins`); a head no import binds stays as written."""
    name = dotted_name(node)
    if name is None:
        return None
    head, dot, rest = name.partition(".")
    return origins.get(head, head) + dot + rest


# ---------------------------------------------------------------------------
# Lock files: the committed manifests (protocol.lock.json, guards.lock.json)
# ---------------------------------------------------------------------------


def render_lock(lock: dict) -> str:
    """Serialize a lock payload in the committed (human-diffable) form."""
    return json.dumps(lock, indent=2, sort_keys=True) + "\n"


def load_lock(path: Any) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def lock_drift(committed: dict, current: dict) -> list[str]:
    """Human-readable differences between two lock payloads (empty = none)."""

    def walk(prefix: str, a: Any, b: Any, out: list[str]) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in sorted(set(a) | set(b)):
                where = f"{prefix}.{key}" if prefix else str(key)
                if key not in a:
                    out.append(f"added: {where} = {b[key]!r}")
                elif key not in b:
                    out.append(f"removed: {where} (was {a[key]!r})")
                else:
                    walk(where, a[key], b[key], out)
        elif a != b:
            out.append(f"changed: {prefix}: {a!r} -> {b!r}")

    problems: list[str] = []
    walk("", committed, current, problems)
    return problems
