"""Whole-program lock-acquisition graph for the static sanitizer half.

Builds, from the parsed module set of one lint invocation, the directed
graph "key A was held while lock key B was acquired" — where keys are
the ``module.Class.attr`` names of :mod:`repro.analysis.lockorder`.
Construction is inter-procedural:

1. **Index** every class: its lock attributes (``self._lock =
   threading.Lock()``, class-level locks, dataclass Condition fields),
   Condition aliases (``self.state_changed = threading.Condition(
   self.lock)`` names the *same* lock), typed attributes, methods, and
   bases; plus every module's imports and top-level functions.
2. **Summarize** every function: which lock keys its body acquires
   (``with``-statements and linear ``.acquire()``/``.release()`` pairs),
   which program functions it calls, and which of both happen *while*
   locks are held.  Lock expressions resolve through ``self``/``cls``,
   parameter and return-type annotations, locally constructed objects,
   and — last — an attribute-name-uniqueness fallback (module-visible
   classes first, then program-wide).
3. **Propagate** locksets to a fixpoint over the call graph, then emit
   edges: a direct nested acquisition, or a call made under a lock to a
   function whose transitive lockset is nonempty.

The analysis is context-insensitive and deliberately under-approximate:
an unresolvable lock expression or callee is skipped, and nested
``def``/``lambda`` bodies are analyzed as their own functions, not as
code of the enclosing ``with`` block (they run later).  Re-entrant
re-acquisition of an ``RLock`` key is not an edge.

Beyond the lock graph, the same walk records the raw material of the
guarded-by inference in :mod:`repro.analysis.guards`:

* every **field access** whose receiver type resolves (``self.attr``,
  ``cls.attr``, typed collaborators and locals), with the lockset held
  locally at the access and read/write direction;
* every **thread entry point** — the resolved target of a
  ``spawn(target, ...)`` call (:func:`repro.util.threads.spawn`) or a
  ``clock.call_later(delay, callback)`` registration (timer callbacks
  run on a dedicated timer thread);
* every resolved **call site** (held lockset may be empty), so a must-
  hold entry-lockset fixpoint can be computed over the call graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.core import ModuleSource, dotted_name
from repro.analysis.lockorder import LOCK, RLOCK

#: threading factory -> lock kind.  A Condition owns a plain lock unless
#: constructed around an existing one (the alias case, handled apart).
#: The ``tracked_*`` factories from :mod:`repro.util.sync` are the
#: sanitizer-aware spellings of the same three primitives.
_LOCK_FACTORIES = {
    "Lock": LOCK,
    "RLock": RLOCK,
    "Condition": LOCK,
    "tracked_lock": LOCK,
    "tracked_rlock": RLOCK,
    "tracked_condition": LOCK,
}

#: method names never resolved by bare uniqueness — too likely to be a
#: builtin container/IO operation on an untyped receiver
_FALLBACK_CALL_DENYLIST = {
    "get", "put", "pop", "append", "add", "remove", "clear", "update",
    "items", "keys", "values", "close", "open", "read", "write", "send",
    "recv", "start", "stop", "join", "set", "wait", "notify", "notify_all",
    "acquire", "release", "wait_for", "next", "copy", "extend", "index",
    "count",
    "split", "strip", "format", "encode", "decode", "register",
}


def strip_repro(modname: str) -> str:
    """Lock keys drop the uniform ``repro.`` package prefix."""
    if modname == "repro":
        return ""
    if modname.startswith("repro."):
        return modname[len("repro."):]
    return modname


# ---------------------------------------------------------------------------
# indexed program structure


@dataclass
class ClassInfo:
    qualname: str                # "attrspace.store.AttributeStore"
    modinfo: "ModuleInfo"
    node: ast.ClassDef
    base_names: list[str] = field(default_factory=list)
    bases: list["ClassInfo"] = field(default_factory=list)      # resolved
    lock_attrs: dict[str, str] = field(default_factory=dict)    # attr -> kind
    aliases: dict[str, str] = field(default_factory=dict)       # attr -> attr
    #: attr -> (raw type name, is_container); resolved in attr_class
    attr_type_names: dict[str, tuple[str, bool]] = field(default_factory=dict)
    attr_classes: dict[str, tuple["ClassInfo", bool]] = field(default_factory=dict)
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    #: attr -> first ``self.attr = ...`` assignment line inside __init__
    #: (the instance fields the guarded-by inference considers)
    init_fields: dict[str, int] = field(default_factory=dict)
    #: lock attrs created via the ``tracked_*`` factories — the subset
    #: the runtime witness can actually observe in ``held_lock_keys()``
    tracked_locks: set[str] = field(default_factory=set)
    #: class declares ``__slots__`` — no instance ``__dict__``, so the
    #: runtime field witness (which stores values and the armed flag
    #: there) cannot wrap its fields
    has_slots: bool = False

    def mro(self) -> list["ClassInfo"]:
        out, seen, stack = [], set(), [self]
        while stack:
            ci = stack.pop(0)
            if ci.qualname in seen:
                continue
            seen.add(ci.qualname)
            out.append(ci)
            stack.extend(ci.bases)
        return out

    def find_lock(self, attr: str) -> tuple[str, str] | None:
        """Resolve ``attr`` to (lock key, kind), following aliases/bases."""
        for ci in self.mro():
            if attr in ci.aliases:
                return self.find_lock(ci.aliases[attr])
            if attr in ci.lock_attrs:
                return f"{ci.qualname}.{attr}", ci.lock_attrs[attr]
        return None

    def find_method(self, name: str) -> str | None:
        for ci in self.mro():
            if name in ci.methods:
                return f"{ci.qualname}.{name}"
        return None

    def attr_class(self, attr: str) -> tuple["ClassInfo", bool] | None:
        for ci in self.mro():
            hit = ci.attr_classes.get(attr)
            if hit is not None:
                return hit
        return None

    def field_owner(self, attr: str) -> "ClassInfo | None":
        """The MRO class whose ``__init__`` assigns ``attr``, if any."""
        for ci in self.mro():
            if attr in ci.init_fields:
                return ci
        return None


@dataclass
class ModuleInfo:
    src: ModuleSource
    mod: str                                       # stripped modname
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)  # name -> dotted
    #: module-level singletons: name -> raw constructor name (resolved
    #: into global_types once all classes are indexed)
    global_type_names: dict[str, str] = field(default_factory=dict)
    global_types: dict[str, "ClassInfo"] = field(default_factory=dict)


@dataclass(frozen=True)
class Edge:
    """``held`` was held at ``path:line`` while ``acquired`` was taken
    (directly, or transitively through a call to ``via``)."""

    held: str
    acquired: str
    path: str
    line: int
    via: str = ""

    def describe(self) -> str:
        how = f" via call to {self.via}()" if self.via else ""
        return f"acquires {self.acquired} while holding {self.held}{how}"


@dataclass(frozen=True)
class FieldAccess:
    """One resolved instance-field access inside one function body.

    ``owner`` is the qualname of the MRO class whose ``__init__`` assigns
    the field (the canonical field identity the guard inference keys on);
    ``held`` is the lockset held *locally* at the access — callers'
    locks are added later by the entry-lockset fixpoint in guards.py.
    """

    owner: str
    attr: str
    path: str
    line: int
    write: bool
    held: tuple[str, ...]
    func: str


@dataclass
class FunctionInfo:
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: ClassInfo | None
    modinfo: ModuleInfo
    acquires: dict[str, tuple[str, int]] = field(default_factory=dict)
    calls: set[str] = field(default_factory=set)
    direct_edges: list[Edge] = field(default_factory=list)
    #: (held keys at the call, callee qualname, line) — every resolved
    #: call site, held possibly empty (guards' entry-lockset fixpoint
    #: needs the lock-free sites too; edge emission skips them)
    calls_under: list[tuple[tuple[str, ...], str, int]] = field(default_factory=list)
    #: resolved instance-field accesses (guarded-by inference input)
    accesses: list[FieldAccess] = field(default_factory=list)
    #: thread entry points this body registers: resolved ``spawn()``
    #: targets and ``call_later()`` callbacks
    spawns: set[str] = field(default_factory=set)


@dataclass
class LockGraph:
    """The finished artifact the concurrency rules consume."""

    #: every resolved acquisition site: (key, path, line)
    acquisitions: list[tuple[str, str, int]]
    #: (held, acquired) -> first-witness edge
    edges: dict[tuple[str, str], Edge]


# ---------------------------------------------------------------------------
# phase 1: index


def _ann_type(ann: ast.AST | None) -> tuple[str, bool] | None:
    """Annotation expr -> (raw class name, is_container) or None.

    ``list[T]``/``dict[K, V]``/``Optional[T]``/``T | None`` unwrap to
    the interesting element type; string annotations are parsed.
    """
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        try:
            return _ann_type(ast.parse(ann.value, mode="eval").body)
        except SyntaxError:
            return None
    if isinstance(ann, (ast.Name, ast.Attribute)):
        raw = dotted_name(ann)
        return (raw, False) if raw else None
    if isinstance(ann, ast.Subscript):
        base = dotted_name(ann.value) or ""
        inner = ann.slice
        container = base.split(".")[-1] in ("list", "List", "set", "Set",
                                            "frozenset", "Iterable", "Iterator",
                                            "Sequence", "deque")
        if base.split(".")[-1] in ("dict", "Dict", "Mapping"):
            if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
                hit = _ann_type(inner.elts[1])
                return (hit[0], True) if hit else None
            return None
        if base.split(".")[-1] in ("Optional",):
            hit = _ann_type(inner)
            return hit
        if container:
            if isinstance(inner, ast.Tuple):
                return None
            hit = _ann_type(inner)
            return (hit[0], True) if hit else None
        return None
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        for side in (ann.left, ann.right):
            if isinstance(side, ast.Constant) and side.value is None:
                continue
            hit = _ann_type(side)
            if hit:
                return hit
        return None
    return None


def _lock_factory_kind(call: ast.AST) -> str | None:
    """``threading.Lock()`` / ``tracked_lock(...)`` call -> kind."""
    if not isinstance(call, ast.Call):
        return None
    raw = dotted_name(call.func)
    if raw is None:
        return None
    leaf = raw.split(".")[-1]
    if leaf in _LOCK_FACTORIES \
            and raw in (leaf, f"threading.{leaf}", f"sync.{leaf}"):
        return _LOCK_FACTORIES[leaf]
    return None


def _is_tracked_factory(call: ast.AST) -> bool:
    """Was the lock created via a sanitizer-aware ``tracked_*`` factory?"""
    if not isinstance(call, ast.Call):
        return False
    raw = dotted_name(call.func) or ""
    return raw.split(".")[-1].startswith("tracked_")


def _alias_target(call: ast.Call) -> str | None:
    """The ``self.X`` a Condition factory wraps, if any.

    ``threading.Condition(self.lock)`` carries the wrapped lock first;
    ``tracked_condition(key, self.lock)`` carries it second (or as the
    ``lock=`` keyword).
    """
    leaf = (dotted_name(call.func) or "").split(".")[-1]
    arg: ast.AST | None = None
    if leaf == "Condition" and call.args:
        arg = call.args[0]
    elif leaf == "tracked_condition":
        if len(call.args) > 1:
            arg = call.args[1]
        else:
            arg = next(
                (kw.value for kw in call.keywords if kw.arg == "lock"), None
            )
    if isinstance(arg, ast.Attribute) and isinstance(arg.value, ast.Name) \
            and arg.value.id == "self":
        return arg.attr
    return None


def _index_class(ci: ClassInfo) -> None:
    """Fill lock_attrs/aliases/attr_type_names/methods from the body."""
    for stmt in ci.node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ci.methods[stmt.name] = stmt
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            if stmt.targets[0].id == "__slots__":
                ci.has_slots = True
                continue
            kind = _lock_factory_kind(stmt.value)
            if kind is not None:
                ci.lock_attrs[stmt.targets[0].id] = kind
                if _is_tracked_factory(stmt.value):
                    ci.tracked_locks.add(stmt.targets[0].id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            raw = dotted_name(stmt.annotation) or ""
            leaf = raw.split(".")[-1]
            if raw in (f"threading.{leaf}", leaf) and leaf in _LOCK_FACTORIES:
                # dataclass-style: _cond: threading.Condition = field(...)
                ci.lock_attrs[stmt.target.id] = _LOCK_FACTORIES[leaf]
            else:
                hit = _ann_type(stmt.annotation)
                if hit:
                    ci.attr_type_names[stmt.target.id] = hit
    # self.X assignments anywhere in the methods.
    for meth in ci.methods.values():
        param_anns: dict[str, tuple[str, bool]] = {}
        for a in (list(meth.args.posonlyargs) + list(meth.args.args)
                  + list(meth.args.kwonlyargs)):
            hit = _ann_type(a.annotation)
            if hit:
                param_anns[a.arg] = hit
        for node in ast.walk(meth):
            target = None
            value: ast.AST | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target = node.target
                if isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in ("self", "cls"):
                    hit = _ann_type(node.annotation)
                    if hit and target.attr not in ci.attr_type_names:
                        ci.attr_type_names[target.attr] = hit
                continue
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in ("self", "cls")):
                continue
            attr = target.attr
            kind = _lock_factory_kind(value)
            if kind is not None and isinstance(value, ast.Call):
                alias = _alias_target(value)
                if alias is not None:
                    # Condition wrapping an existing lock names that lock.
                    ci.aliases[attr] = alias
                else:
                    ci.lock_attrs.setdefault(attr, kind)
                    if _is_tracked_factory(value):
                        ci.tracked_locks.add(attr)
                continue
            if isinstance(value, ast.Call):
                raw = dotted_name(value.func)
                if raw and attr not in ci.attr_type_names:
                    ci.attr_type_names[attr] = (raw, False)
            elif isinstance(value, ast.Name) and value.id in param_anns:
                # collaborator injection: self._store = store
                ci.attr_type_names.setdefault(attr, param_anns[value.id])
    # Instance fields established by the constructor (guard inference
    # scope): any self.X store target inside __init__.
    init = ci.methods.get("__init__")
    if init is not None:
        for node in ast.walk(init):
            if not isinstance(node, ast.Attribute) \
                    or not isinstance(node.ctx, ast.Store):
                continue
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                ci.init_fields.setdefault(node.attr, node.lineno)


class Program:
    """The indexed module set: name resolution + function summaries."""

    def __init__(self, modules: list[ModuleSource]):
        self._graph: LockGraph | None = None
        self.modinfos: list[ModuleInfo] = []
        self.classes_by_qual: dict[str, ClassInfo] = {}
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.module_functions: dict[str, ast.FunctionDef] = {}
        for src in modules:
            self._index_module(src)
        self._resolve_class_refs()
        #: lock attr name -> {(key, kind)} for the uniqueness fallback
        self.lock_attr_owners: dict[str, set[tuple[str, str]]] = {}
        for ci in self.classes_by_qual.values():
            for attr in list(ci.lock_attrs) + list(ci.aliases):
                hit = ci.find_lock(attr)
                if hit:
                    self.lock_attr_owners.setdefault(attr, set()).add(hit)
        #: lock keys created via ``tracked_*`` factories — the runtime
        #: witness can only check guards drawn from this set
        self.tracked_lock_keys: set[str] = {
            f"{ci.qualname}.{attr}"
            for ci in self.classes_by_qual.values()
            for attr in ci.tracked_locks
        }
        #: method name -> defining classes (bare-call fallback)
        self.method_owners: dict[str, list[ClassInfo]] = {}
        for ci in self.classes_by_qual.values():
            for name in ci.methods:
                self.method_owners.setdefault(name, []).append(ci)
        self._summarize()

    # -- indexing ----------------------------------------------------------

    def _index_module(self, src: ModuleSource) -> None:
        mi = ModuleInfo(src=src, mod=strip_repro(src.modname))
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module and (node.module == "repro"
                                         or node.module.startswith("repro.")):
                base = strip_repro(node.module)
                for alias in node.names:
                    dotted = f"{base}.{alias.name}" if base else alias.name
                    mi.imports[alias.asname or alias.name] = dotted
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname and alias.name.startswith("repro."):
                        mi.imports[alias.asname] = strip_repro(alias.name)
        for stmt in src.tree.body:
            if isinstance(stmt, ast.ClassDef):
                ci = ClassInfo(
                    qualname=f"{mi.mod}.{stmt.name}" if mi.mod else stmt.name,
                    modinfo=mi,
                    node=stmt,
                    base_names=[dotted_name(b) for b in stmt.bases
                                if dotted_name(b)],
                )
                _index_class(ci)
                mi.classes[stmt.name] = ci
                self.classes_by_qual[ci.qualname] = ci
                self.classes_by_name.setdefault(stmt.name, []).append(ci)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mi.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Call):
                raw = dotted_name(stmt.value.func)
                if raw:
                    mi.global_type_names[stmt.targets[0].id] = raw
        self.modinfos.append(mi)

    def _resolve_class_refs(self) -> None:
        for mi in self.modinfos:
            for ci in mi.classes.values():
                ci.bases = [
                    b for raw in ci.base_names
                    if (b := self.resolve_class(raw, mi)) is not None
                ]
        for mi in self.modinfos:
            for ci in mi.classes.values():
                for attr, (raw, cont) in ci.attr_type_names.items():
                    target = self.resolve_class(raw, mi)
                    if target is not None:
                        ci.attr_classes[attr] = (target, cont)
            for name, raw in mi.global_type_names.items():
                target = self.resolve_class(raw, mi)
                if target is not None:
                    mi.global_types[name] = target

    def resolve_class(self, raw: str, mi: ModuleInfo) -> ClassInfo | None:
        """Resolve a possibly dotted class reference in module context."""
        parts = raw.split(".")
        head = parts[0]
        if len(parts) == 1 and head in mi.classes:
            return mi.classes[head]
        if head in mi.imports:
            dotted = ".".join([mi.imports[head]] + parts[1:])
            hit = self.classes_by_qual.get(dotted)
            if hit is not None:
                return hit
        if len(parts) == 1:
            cands = self.classes_by_name.get(head, [])
            if len(cands) == 1:
                return cands[0]
        return None

    # -- function summaries -------------------------------------------------

    def _summarize(self) -> None:
        for mi in self.modinfos:
            for name, node in mi.functions.items():
                qual = f"{mi.mod}.{name}" if mi.mod else name
                self._summarize_function(qual, node, None, mi)
            for ci in mi.classes.values():
                for name, node in ci.methods.items():
                    self._summarize_function(
                        f"{ci.qualname}.{name}", node, ci, mi
                    )

    def _summarize_function(
        self,
        qual: str,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ClassInfo | None,
        mi: ModuleInfo,
    ) -> None:
        fi = FunctionInfo(qualname=qual, node=node, cls=cls, modinfo=mi)
        _BodyWalker(self, fi).run()
        self.functions[qual] = fi

    # -- graph construction ----------------------------------------------------

    def thread_roots(self) -> set[str]:
        """Every resolved thread entry point registered in the program:
        ``spawn()`` targets and ``call_later()`` callbacks."""
        roots: set[str] = set()
        for fi in self.functions.values():
            roots |= fi.spawns
        return roots

    def reachable_from(self, starts: Iterable[str]) -> set[str]:
        """Forward transitive closure over the resolved call graph."""
        seen: set[str] = set()
        stack = [q for q in starts if q in self.functions]
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            fi = self.functions.get(q)
            if fi is not None:
                stack.extend(fi.calls - seen)
        return seen

    def build_graph(self) -> LockGraph:
        if self._graph is not None:
            return self._graph
        locksets: dict[str, set[str]] = {
            q: set(fi.acquires) for q, fi in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for q, fi in self.functions.items():
                mine = locksets[q]
                before = len(mine)
                for callee in fi.calls:
                    callee_set = locksets.get(callee)
                    if callee_set:
                        mine |= callee_set
                if len(mine) != before:
                    changed = True

        kinds: dict[str, str] = {}
        for owners in self.lock_attr_owners.values():
            for key, kind in owners:
                kinds[key] = kind

        acquisitions: list[tuple[str, str, int]] = []
        edges: dict[tuple[str, str], Edge] = {}

        def add_edge(e: Edge) -> None:
            if e.held == e.acquired and kinds.get(e.held) == RLOCK:
                return  # re-entrant re-acquire is legal, not an edge
            edges.setdefault((e.held, e.acquired), e)

        for fi in self.functions.values():
            path = fi.modinfo.src.path
            for key, (_, line) in fi.acquires.items():
                acquisitions.append((key, path, line))
            for e in fi.direct_edges:
                add_edge(e)
            for held, callee, line in fi.calls_under:
                for key in locksets.get(callee, ()):
                    for h in held:
                        add_edge(Edge(
                            held=h, acquired=key, path=path,
                            line=line, via=callee,
                        ))
        acquisitions.sort()
        self._graph = LockGraph(acquisitions=acquisitions, edges=edges)
        return self._graph


class _BodyWalker:
    """Walk one function body tracking the held-lock stack."""

    def __init__(self, program: Program, fi: FunctionInfo):
        self.program = program
        self.fi = fi
        self.held: list[str] = []
        #: local/param name -> (ClassInfo, is_container)
        self.var_types: dict[str, tuple[ClassInfo, bool]] = {}

    def run(self) -> None:
        node, cls, mi = self.fi.node, self.fi.cls, self.fi.modinfo
        args = node.args
        for a in (list(args.posonlyargs) + list(args.args)
                  + list(args.kwonlyargs)):
            if a.arg in ("self", "cls") and cls is not None:
                self.var_types[a.arg] = (cls, False)
            else:
                hit = _ann_type(a.annotation)
                if hit:
                    target = self.program.resolve_class(hit[0], mi)
                    if target is not None:
                        self.var_types[a.arg] = (target, hit[1])
        self.walk_body(node.body)

    # -- type inference ----------------------------------------------------

    def expr_type(self, expr: ast.AST) -> tuple[ClassInfo, bool] | None:
        if isinstance(expr, ast.Name):
            hit = self.var_types.get(expr.id)
            if hit is not None:
                return hit
            glob = self.fi.modinfo.global_types.get(expr.id)
            return (glob, False) if glob is not None else None
        if isinstance(expr, ast.Attribute):
            base = self.expr_type(expr.value)
            if base is not None and not base[1]:
                return base[0].attr_class(expr.attr)
            return None
        if isinstance(expr, ast.Call):
            raw = dotted_name(expr.func)
            if raw is not None:
                target = self.program.resolve_class(raw, self.fi.modinfo)
                if target is not None:
                    return (target, False)
            if isinstance(expr.func, ast.Attribute):
                base = self.expr_type(expr.func.value)
                if base is not None and not base[1]:
                    for ci in base[0].mro():
                        meth = ci.methods.get(expr.func.attr)
                        if meth is not None:
                            hit = _ann_type(meth.returns)
                            if hit:
                                t = self.program.resolve_class(
                                    hit[0], ci.modinfo)
                                if t is not None:
                                    return (t, hit[1])
                            return None
            elif isinstance(expr.func, ast.Name):
                fn = self.fi.modinfo.functions.get(expr.func.id)
                if fn is not None:
                    hit = _ann_type(fn.returns)
                    if hit:
                        t = self.program.resolve_class(hit[0], self.fi.modinfo)
                        if t is not None:
                            return (t, hit[1])
            return None
        if isinstance(expr, ast.Subscript):
            base = self.expr_type(expr.value)
            if base is not None and base[1]:
                return (base[0], False)
            return None
        return None

    def element_type(self, expr: ast.AST) -> tuple[ClassInfo, bool] | None:
        base = self.expr_type(expr)
        if base is not None and base[1]:
            return (base[0], False)
        return None

    # -- lock resolution --------------------------------------------------------

    def resolve_lock(self, expr: ast.AST) -> tuple[str, str] | None:
        """Lock expression -> (key, kind), or None when unresolvable."""
        if not isinstance(expr, ast.Attribute):
            return None  # bare names are function-local anonymous locks
        attr = expr.attr
        base_t = self.expr_type(expr.value)
        if base_t is not None and not base_t[1]:
            return base_t[0].find_lock(attr)
        if isinstance(expr.value, ast.Name):
            # ClassName._class_level_lock
            target = self.program.resolve_class(
                expr.value.id, self.fi.modinfo)
            if target is not None:
                return target.find_lock(attr)
        # Uniqueness fallback: module-visible owners first, then global.
        owners = self.program.lock_attr_owners.get(attr, set())
        if len(owners) == 1:
            return next(iter(owners))
        if len(owners) > 1:
            visible = self._visible_classes()
            local = {
                hit for ci in visible
                if (hit := ci.find_lock(attr)) is not None
            }
            if len(local) == 1:
                return next(iter(local))
        return None

    def _visible_classes(self) -> list[ClassInfo]:
        mi = self.fi.modinfo
        out = list(mi.classes.values())
        for target in mi.imports.values():
            ci = self.program.classes_by_qual.get(target)
            if ci is not None:
                out.append(ci)
        return out

    # -- call resolution ---------------------------------------------------------

    def resolve_call(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            mi = self.fi.modinfo
            target = self.program.resolve_class(name, mi)
            if target is not None:
                return target.find_method("__init__")
            if name in mi.functions:
                return f"{mi.mod}.{name}" if mi.mod else name
            dotted = mi.imports.get(name)
            if dotted is not None and dotted in self.program.functions:
                return dotted
            return None
        if isinstance(func, ast.Attribute):
            if self.resolve_lock(func.value) is not None:
                return None  # threading API on a lock/condition object
            base_t = self.expr_type(func.value)
            if base_t is not None and not base_t[1]:
                return base_t[0].find_method(func.attr)
            raw = dotted_name(func)
            if raw is not None:
                mi = self.fi.modinfo
                head, rest = raw.split(".", 1)
                dotted = mi.imports.get(head)
                if dotted is not None:
                    qual = f"{dotted}.{rest}"
                    if qual in self.program.functions:
                        return qual
                    target = self.program.classes_by_qual.get(dotted)
                    if target is not None and "." not in rest:
                        return target.find_method(rest)
            # Bare-uniqueness fallback for obviously program-specific names.
            name = func.attr
            if name not in _FALLBACK_CALL_DENYLIST \
                    and not name.startswith("__"):
                owners = [
                    ci for ci in self.program.method_owners.get(name, [])
                ]
                if len(owners) == 1:
                    return f"{owners[0].qualname}.{name}"
            return None
        return None

    # -- the walk -----------------------------------------------------------------

    def record_acquire(self, key: str, kind: str, line: int) -> None:
        path = self.fi.modinfo.src.path
        self.fi.acquires.setdefault(key, (path, line))
        for h in self.held:
            if h == key and kind == RLOCK:
                continue
            self.fi.direct_edges.append(
                Edge(held=h, acquired=key, path=path, line=line)
            )

    def record_call(self, call: ast.Call) -> None:
        self._record_thread_entry(call)
        callee = self.resolve_call(call)
        if callee is None:
            return
        self.fi.calls.add(callee)
        self.fi.calls_under.append(
            (tuple(dict.fromkeys(self.held)), callee, call.lineno)
        )

    #: thread-entry registration calls: leaf name -> positional index and
    #: keyword name of the callable that will run on another thread
    _THREAD_ENTRY_CALLS = {
        "spawn": (0, "target"),          # util.threads.spawn
        "call_later": (1, "callback"),   # util.clock.Clock.call_later
    }

    def _record_thread_entry(self, call: ast.Call) -> None:
        """Resolve the callable handed to ``spawn``/``call_later``.

        Detection is syntactic (leaf name), so seeded fixtures that
        define their own ``spawn`` helper participate without importing
        :mod:`repro.util.threads`.
        """
        leaf = (dotted_name(call.func) or "").split(".")[-1]
        spec = self._THREAD_ENTRY_CALLS.get(leaf)
        if spec is None:
            return
        index, kwname = spec
        arg: ast.AST | None = None
        if len(call.args) > index:
            arg = call.args[index]
        else:
            arg = next(
                (kw.value for kw in call.keywords if kw.arg == kwname), None
            )
        target = self._resolve_callable(arg)
        if target is not None:
            self.fi.spawns.add(target)

    def _resolve_callable(self, expr: ast.AST | None) -> str | None:
        """A callable expression -> function qualname (None if opaque)."""
        if isinstance(expr, ast.Call):
            # functools.partial(f, ...) carries the callable first
            leaf = (dotted_name(expr.func) or "").split(".")[-1]
            if leaf == "partial" and expr.args:
                return self._resolve_callable(expr.args[0])
            return None
        if isinstance(expr, ast.Attribute):
            base_t = self.expr_type(expr.value)
            if base_t is not None and not base_t[1]:
                return base_t[0].find_method(expr.attr)
            return None
        if isinstance(expr, ast.Name):
            mi = self.fi.modinfo
            if expr.id in mi.functions:
                return f"{mi.mod}.{expr.id}" if mi.mod else expr.id
            dotted = mi.imports.get(expr.id)
            if dotted is not None and dotted in self.program.functions:
                return dotted
        return None

    def record_access(self, node: ast.Attribute) -> None:
        """Record a resolvable instance-field access with the held lockset.

        Lock attributes themselves are excluded — touching ``self._lock``
        is lock usage, not shared-state access.
        """
        base_t = self.expr_type(node.value)
        if base_t is None or base_t[1]:
            return
        cls = base_t[0]
        if cls.find_lock(node.attr) is not None:
            return
        owner = cls.field_owner(node.attr)
        if owner is None:
            return
        self.fi.accesses.append(FieldAccess(
            owner=owner.qualname,
            attr=node.attr,
            path=self.fi.modinfo.src.path,
            line=node.lineno,
            write=isinstance(node.ctx, (ast.Store, ast.Del)),
            held=tuple(dict.fromkeys(self.held)),
            func=self.fi.qualname,
        ))

    def walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.walk_stmt(stmt)

    def walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # analyzed as its own function where reachable
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed: list[str] = []
            for item in stmt.items:
                self.visit_expr(item.context_expr)
                hit = self.resolve_lock(item.context_expr)
                if hit is not None:
                    key, kind = hit
                    self.record_acquire(key, kind, item.context_expr.lineno)
                    self.held.append(key)
                    pushed.append(key)
            self.walk_body(stmt.body)
            for _ in pushed:
                self.held.pop()
            return
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute) \
                    and call.func.attr in ("acquire", "release"):
                hit = self.resolve_lock(call.func.value)
                if hit is not None:
                    key, kind = hit
                    for arg in call.args:
                        self.visit_expr(arg)
                    if call.func.attr == "acquire":
                        self.record_acquire(key, kind, call.lineno)
                        self.held.append(key)
                    elif key in self.held:
                        self.held.remove(key)
                    return
        # Typed-local bookkeeping, then generic descent.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            t = self.expr_type(stmt.value)
            if t is not None:
                self.var_types[stmt.targets[0].id] = t
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            hit = _ann_type(stmt.annotation)
            if hit:
                target = self.program.resolve_class(hit[0], self.fi.modinfo)
                if target is not None:
                    self.var_types[stmt.target.id] = (target, hit[1])
        elif isinstance(stmt, (ast.For, ast.AsyncFor)) \
                and isinstance(stmt.target, ast.Name):
            t = self.element_type(stmt.iter)
            if t is not None:
                self.var_types[stmt.target.id] = t
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self.walk_stmt(child)
            else:
                self.visit_expr(child)

    def visit_expr(self, node: ast.AST) -> None:
        """Record resolvable calls inside an expression tree.

        Statements reached through non-statement wrappers (an except
        handler's body, a match case) route back through walk_stmt so
        ``with`` blocks inside them still track the held stack.
        """
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.stmt):
            self.walk_stmt(node)
            return
        if isinstance(node, ast.Call):
            self.record_call(node)
        elif isinstance(node, ast.Attribute):
            self.record_access(node)
        for child in ast.iter_child_nodes(node):
            self.visit_expr(child)


#: one-entry memo so every program rule of one engine invocation (lock
#: order, guards) shares a single index + fixpoint over the same module
#: set (the engine passes each rule the same list)
_PROGRAM_CACHE: dict[tuple, Program] = {}


def program_cached(modules: list[ModuleSource]) -> Program:
    """The indexed :class:`Program` for ``modules``, memoized on content."""
    key = tuple((m.modname, m.path, hash(m.text)) for m in modules)
    if key not in _PROGRAM_CACHE:
        _PROGRAM_CACHE.clear()
        _PROGRAM_CACHE[key] = Program(list(modules))
    return _PROGRAM_CACHE[key]


def build_lock_graph(modules: list[ModuleSource]) -> LockGraph:
    """Index ``modules`` and return the whole-program lock graph."""
    return program_cached(modules).build_graph()
