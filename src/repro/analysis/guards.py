"""Whole-program guarded-by inference: which lock protects which field.

The lock-order half of the concurrency sanitizer (PRs 1-2) proves that
the locks we *do* take cannot deadlock — it says nothing about coverage:
a daemon field mutated with no lock held at all passes every existing
gate.  This module closes that hole by inferring, for every shared
instance field of every daemon class, the lock that guards it, and
flagging the access sites that break the inferred discipline.

The pass reuses the interprocedural index of
:mod:`repro.analysis.lockgraph` (class/lock/method resolution, the
held-lockset body walk, the call graph) and layers three computations on
top:

1. **Entry locksets** — a must-hold fixpoint over the call graph: a
   *private* function whose every resolved call site runs under lock L
   executes with L held on entry, so field accesses in its body count as
   guarded by L.  Public functions, thread entry points, and functions
   with no resolved callers enter with the empty lockset (they are
   callable from anywhere, tests included).
2. **Thread roots** — the transitive call closure of every
   ``spawn()`` target and ``call_later()`` callback defines one root
   each; the closure of the public API surface is the ``main`` root.  A
   function reached only through dynamic dispatch (stored callbacks) is
   attributed to the pseudo-root ``indirect``: its executing thread is
   unknown, which biases the analysis toward *checking* such fields.
3. **Guard inference** per field (instance attributes assigned in
   ``__init__``, excluding the locks themselves):

   * accesses inside the constructor phase (``__init__`` and private
     helpers called from nowhere else) are setup, not sharing;
   * a field never written after construction is **final** — reads need
     no guard;
   * a field whose remaining accesses all happen on one thread root is
     **confined** — no guard needed, but an access from a second root is
     a ``thread-confined-escape``;
   * otherwise the guard is the lock held at a **supermajority**
     (>= 2/3) of the access sites; minority sites without it are
     ``guarded-field-unlocked`` findings;
   * no supermajority and no confinement means the discipline is
     unclear: ``guard-ambiguous``, fixed by locking consistently or by
     an explicit ``# tdp-guard: field -> module.Class.lock``
     declaration.

Intentional exceptions are **waivers** — entries in :data:`WAIVERS`
keyed ``"<field key>@<accessing function>"`` with a justification, the
same visible-and-diffable pattern as ``wireschema.WAIVERS``.  A waiver
that no longer suppresses anything is itself a ``guard-manifest-stale``
finding, so dead entries cannot mask a regression.

The inferred result serializes to the committed ``guards.lock.json``
(``python -m repro guards dump|check``), which is also the manifest the
**runtime field-access witness** reads: under ``TDP_SANITIZE=1``,
:func:`repro.util.sync.arm_guard_witness` installs a descriptor on every
witnessed field that raises
:class:`~repro.errors.GuardViolationError` the moment the field is
touched without its declared guard held — static inference and live
witness share one manifest, exactly as :mod:`repro.analysis.lockorder`
already does for ordering.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.analysis.core import (  # the lock-file helpers are re-exported
    ModuleSource,
    load_lock,
    lock_drift,
    render_lock,
)
from repro.analysis.lockgraph import (
    ClassInfo,
    FieldAccess,
    Program,
    program_cached,
)

#: fraction of access sites that must agree on a lock (or a root) for
#: the guard (or the confinement) to be inferred
SUPERMAJORITY = 2 / 3

#: the synthetic root for code reachable from the public API surface
MAIN_ROOT = "main"
#: the pseudo-root for functions reached only through dynamic dispatch
#: (stored callbacks, timers the resolver could not see): the executing
#: thread is unknown, so it never counts as confinement
INDIRECT_ROOT = "indirect"

#: guard spelling for thread-confined fields in declarations/lock file
CONFINED_PREFIX = "confined:"

#: declared-only guard for sanctioned benign races: monotonic latches
#: (``_closed``/``_stopped`` flags), write-once publishes sequenced by a
#: thread start or a handshake, and owner-stamp fields that are only
#: trusted when they name the reading thread.  Never inferred — a
#: ``volatile`` tdp-guard declaration is an explicit, reviewable claim
#: that every race on the field is benign.
VOLATILE = "volatile"

LOCK_FILENAME = "guards.lock.json"
LOCK_SCHEMA_VERSION = 1

#: Sanctioned unguarded access sites, keyed ``"<field key>@<function>"``
#: with the justification.  Every entry must suppress at least one live
#: violation or ``guard-manifest-stale`` fires on it.  Emitted into the
#: lock file so exceptions stay visible and diffable.
WAIVERS: dict[str, str] = {
    "attrspace.server._Connection.member@attrspace.server.AttributeSpaceServer._op_attach": (
        "attach (re)binds the member before any later op on this "
        "connection can read it: the serving thread processes frames "
        "serially, and cross-thread readers (the writer_id property, "
        "put attribution) tolerate the pre-attach peer label"
    ),
    "transport.eventloop._Conn.token@transport.eventloop.ServerSocketLoop._teardown_conn": (
        "teardown only runs on the loop thread: _close_conn dispatches "
        "to _drain_closes inline only when threading.get_ident() matches "
        "the loop thread, off-loop closers just enqueue and wake — a "
        "runtime dispatch the static reachability pass cannot see"
    ),
    "sim.process.SimProcess.state@sim.process.SimProcess.__repr__": (
        "diagnostic repr must never block on the process lock (it is "
        "called from log statements inside scheduler critical sections); "
        "a stale state string is acceptable"
    ),
    "sim.process.SimProcess.pending_syscall@sim.process.SimProcess._finish": (
        "terminate() finishes a process from outside the scheduler "
        "thread, under the process lock, only after _set_state(EXITED) "
        "makes the scheduler skip the slice; the scheduler re-reads "
        "state under the lock before touching interpreter fields"
    ),
}


# ---------------------------------------------------------------------------
# Result model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Site:
    """One post-construction access to one field."""

    path: str
    line: int
    func: str
    write: bool
    held: frozenset[str]
    roots: frozenset[str]

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        return f"{kind} in {self.func}"


@dataclass
class FieldGuard:
    """The inferred guard discipline for one instance field."""

    key: str                      # "attrspace.server._Connection.lease"
    owner: str                    # owning class qualname
    attr: str
    decl_path: str
    decl_line: int
    sites: list[Site] = field(default_factory=list)
    writes: int = 0
    roots: frozenset[str] = frozenset()
    #: lock key, ``confined:<root>``, ``final``, or None (ambiguous)
    guard: str | None = None
    #: "inferred" | "declared" | None
    source: str | None = None
    #: sites that break the guard, with the rule name they trip
    violations: list[tuple[Site, str]] = field(default_factory=list)
    #: waiver keys consumed by this field's violations
    waived: list[str] = field(default_factory=list)

    @property
    def shared(self) -> bool:
        return len(self.roots) > 1

    @property
    def lock_guarded(self) -> bool:
        return (
            self.guard is not None
            and not self.guard.startswith(CONFINED_PREFIX)
            and self.guard not in ("final", VOLATILE)
        )

    def coverage(self) -> tuple[int, int]:
        """(sites holding the inferred lock, total sites)."""
        if not self.lock_guarded:
            return (0, len(self.sites))
        return (
            sum(1 for s in self.sites if self.guard in s.held),
            len(self.sites),
        )


@dataclass(frozen=True)
class Declaration:
    """One parsed ``# tdp-guard: field -> guard`` comment."""

    field_key: str
    guard: str
    path: str
    line: int


@dataclass(frozen=True)
class StaleEntry:
    """A manifest entry (waiver/declaration) that matches nothing."""

    kind: str          # "waiver" | "declaration"
    key: str
    path: str
    line: int
    message: str


@dataclass
class GuardReport:
    """Everything the guard rules, the CLI, and the witness consume."""

    #: field key -> inference result, every candidate field (final and
    #: main-confined included, so declarations/waivers can be validated)
    fields: dict[str, FieldGuard] = field(default_factory=dict)
    declarations: dict[str, Declaration] = field(default_factory=dict)
    stale: list[StaleEntry] = field(default_factory=list)
    #: resolved thread roots (diagnostics + non-vacuity pins)
    thread_roots: frozenset[str] = frozenset()
    #: guard keys the runtime witness can observe (tracked_* factories)
    tracked_lock_keys: frozenset[str] = frozenset()
    #: classes with ``__slots__`` — no instance ``__dict__``, so the
    #: witness descriptor has nowhere to store values or the armed flag
    slotted_owners: frozenset[str] = frozenset()
    #: total post-construction access sites considered
    total_sites: int = 0

    def guarded_fields(self) -> dict[str, FieldGuard]:
        """The manifest-worthy subset: every explicitly declared field,
        lock-guarded fields, and fields confined to a non-main thread
        root (the interesting invariants; inferred-final and main-only
        fields are noise)."""
        out: dict[str, FieldGuard] = {}
        for key, fg in self.fields.items():
            if fg.source == "declared" or fg.lock_guarded:
                out[key] = fg
            elif fg.guard and fg.guard.startswith(CONFINED_PREFIX) \
                    and fg.guard != f"{CONFINED_PREFIX}{MAIN_ROOT}" \
                    and len(fg.sites) > 0:
                out[key] = fg
        return out


# ---------------------------------------------------------------------------
# Entry locksets (must-hold fixpoint)
# ---------------------------------------------------------------------------


def _leaf_name(qualname: str) -> str:
    return qualname.rsplit(".", 1)[-1]


def _is_public(qualname: str) -> bool:
    """Callable from outside the analyzed program (API surface)?

    Dunders count as public: constructors, context managers, and
    operator hooks all run on whatever thread the caller happens to be.
    """
    leaf = _leaf_name(qualname)
    if leaf.startswith("__") and leaf.endswith("__"):
        return True
    return not leaf.startswith("_")


def entry_locksets(program: Program) -> dict[str, frozenset[str]]:
    """For every function, the lockset provably held on entry.

    Greatest-fixpoint must-analysis over all resolved call sites:
    ``entry(f) = ∩ over call sites (entry(caller) ∪ held_at_site)``.
    Public functions, thread entry points, and functions with no
    resolved call sites are pinned to the empty set — they can be
    entered from contexts the program does not show.
    """
    roots = program.thread_roots()
    callers: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for q, fi in program.functions.items():
        for held, callee, _line in fi.calls_under:
            callers.setdefault(callee, []).append((q, held))

    empty: frozenset[str] = frozenset()
    entry: dict[str, frozenset[str] | None] = {}
    for q in program.functions:
        if _is_public(q) or q in roots or not callers.get(q):
            entry[q] = empty
        else:
            entry[q] = None  # ⊤: optimistic until a caller pins it

    changed = True
    while changed:
        changed = False
        for q in program.functions:
            if entry[q] == empty:
                continue
            meet: frozenset[str] | None = None
            for caller, held in callers.get(q, ()):
                base = entry.get(caller)
                if base is None:
                    continue  # still ⊤; contributes nothing yet
                site_set = base | frozenset(held)
                meet = site_set if meet is None else (meet & site_set)
                if not meet:
                    break
            if meet is not None and meet != entry[q]:
                entry[q] = meet
                changed = True
    return {q: (s if s is not None else empty) for q, s in entry.items()}


# ---------------------------------------------------------------------------
# Thread-root attribution
# ---------------------------------------------------------------------------


def root_map(program: Program) -> dict[str, frozenset[str]]:
    """Function qualname -> the set of thread roots that can reach it.

    Each ``spawn``/``call_later`` target roots its own closure under its
    target's qualname; the closure of every public function is the
    ``main`` root.  Functions in neither closure get ``indirect``.
    """
    roots = sorted(program.thread_roots())
    closures: dict[str, set[str]] = {
        r: program.reachable_from([r]) for r in roots
    }
    public = [q for q in program.functions if _is_public(q)]
    main_closure = program.reachable_from(public)
    out: dict[str, frozenset[str]] = {}
    for q in program.functions:
        mine = {r for r in roots if q in closures[r]}
        if q in main_closure:
            mine.add(MAIN_ROOT)
        if not mine:
            mine.add(INDIRECT_ROOT)
        out[q] = frozenset(mine)
    return out


# ---------------------------------------------------------------------------
# Construction phase
# ---------------------------------------------------------------------------


def _construction_functions(program: Program) -> dict[str, set[str]]:
    """Class qualname -> functions that are part of its construction.

    ``__init__`` itself plus every private function whose *every*
    resolved call site lies inside the set (constructor helper methods).
    Accesses there run before the object is published, so they need no
    guard and the runtime witness is not yet armed.
    """
    callers: dict[str, set[str]] = {}
    for q, fi in program.functions.items():
        for _held, callee, _line in fi.calls_under:
            callers.setdefault(callee, set()).add(q)

    out: dict[str, set[str]] = {}
    for qual, ci in program.classes_by_qual.items():
        constr = {
            f"{c.qualname}.__init__"
            for c in program.classes_by_qual.values()
            if ci in c.mro() and "__init__" in c.methods
        }
        constr.add(f"{qual}.__init__")
        changed = True
        while changed:
            changed = False
            for q in program.functions:
                if q in constr or _is_public(q):
                    continue
                calling = callers.get(q)
                if calling and calling <= constr:
                    constr.add(q)
                    changed = True
        out[qual] = constr
    return out


# ---------------------------------------------------------------------------
# Declaration parsing (the ``tdp-guard`` comment directive)
# ---------------------------------------------------------------------------

_DECL_RE = re.compile(
    r"#\s*tdp-guard\s*:\s*(?P<field>[\w.]+)\s*->\s*(?P<guard>[\w.:]+)"
)


def _class_spans(tree: ast.Module) -> list[tuple[int, int, str]]:
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            spans.append((node.lineno, node.end_lineno or node.lineno, node.name))
    return spans


def parse_declarations(
    modules: Iterable[ModuleSource], program: Program
) -> tuple[dict[str, Declaration], list[StaleEntry]]:
    """Collect ``# tdp-guard`` comments, resolving field references.

    A bare ``field`` resolves against the class enclosing the comment;
    ``Class.field`` and ``module.Class.field`` forms resolve program-
    wide.  Unresolvable declarations surface as stale entries rather
    than being dropped.
    """
    from repro.analysis.lockgraph import strip_repro

    decls: dict[str, Declaration] = {}
    stale: list[StaleEntry] = []
    for module in modules:
        try:
            comments = [
                (tok.start[0], tok.string)
                for tok in tokenize.generate_tokens(
                    io.StringIO(module.text).readline
                )
                if tok.type == tokenize.COMMENT
            ]
        except (tokenize.TokenizeError, IndentationError):
            continue
        spans = _class_spans(module.tree)
        mod = strip_repro(module.modname)
        for lineno, comment in comments:
            m = _DECL_RE.search(comment)
            if m is None:
                continue
            raw_field, guard = m.group("field"), m.group("guard")
            key = _resolve_field_ref(raw_field, mod, lineno, spans, program)
            if key is None:
                stale.append(StaleEntry(
                    kind="declaration", key=raw_field,
                    path=module.path, line=lineno,
                    message=(
                        f"tdp-guard declaration names unknown field "
                        f"{raw_field!r}"
                    ),
                ))
                continue
            resolved_guard = _resolve_guard_ref(guard, program)
            if resolved_guard is None:
                stale.append(StaleEntry(
                    kind="declaration", key=raw_field,
                    path=module.path, line=lineno,
                    message=(
                        f"tdp-guard declaration for {key} names unknown "
                        f"guard {guard!r} (expected a lock key "
                        f"module.Class.attr or confined:<root>)"
                    ),
                ))
                continue
            decls[key] = Declaration(
                field_key=key, guard=resolved_guard,
                path=module.path, line=lineno,
            )
    return decls, stale


def _resolve_field_ref(
    raw: str,
    mod: str,
    lineno: int,
    spans: list[tuple[int, int, str]],
    program: Program,
) -> str | None:
    parts = raw.split(".")
    if len(parts) == 1:
        # bare attr: innermost enclosing class
        best = None
        for start, end, name in spans:
            if start <= lineno <= end:
                if best is None or start > best[0]:
                    best = (start, name)
        if best is None:
            return None
        qual = f"{mod}.{best[1]}" if mod else best[1]
        ci = program.classes_by_qual.get(qual)
        if ci is None:
            return None
        owner = ci.field_owner(parts[0])
        return f"{owner.qualname}.{parts[0]}" if owner is not None else None
    attr = parts[-1]
    cls_ref = ".".join(parts[:-1])
    ci = _resolve_class_ref(cls_ref, program)
    if ci is None:
        return None
    owner = ci.field_owner(attr)
    return f"{owner.qualname}.{attr}" if owner is not None else None


def _resolve_class_ref(ref: str, program: Program) -> ClassInfo | None:
    hit = program.classes_by_qual.get(ref)
    if hit is not None:
        return hit
    cands = program.classes_by_name.get(ref.rsplit(".", 1)[-1], [])
    matching = [c for c in cands if c.qualname.endswith(ref)]
    return matching[0] if len(matching) == 1 else None


def _resolve_guard_ref(raw: str, program: Program) -> str | None:
    if raw == VOLATILE:
        return raw
    if raw.startswith(CONFINED_PREFIX):
        return raw  # confinement roots are validated against sites later
    attr = raw.rsplit(".", 1)[-1]
    owners = program.lock_attr_owners.get(attr, set())
    exact = [key for key, _kind in owners if key == raw or key.endswith(f".{raw}")]
    if len(exact) == 1:
        return exact[0]
    if len(owners) == 1 and "." not in raw:
        return next(iter(owners))[0]
    return None


# ---------------------------------------------------------------------------
# The inference
# ---------------------------------------------------------------------------


def infer(modules: Iterable[ModuleSource]) -> GuardReport:
    """Run the guarded-by inference over a parsed module set."""
    module_list = list(modules)
    program = program_cached(module_list)
    entry = entry_locksets(program)
    roots_of = root_map(program)
    construction = _construction_functions(program)

    report = GuardReport(
        thread_roots=frozenset(program.thread_roots()),
        tracked_lock_keys=frozenset(program.tracked_lock_keys),
        slotted_owners=frozenset(
            qual for qual, ci in program.classes_by_qual.items()
            if ci.has_slots
        ),
    )
    decls, stale = parse_declarations(module_list, program)
    report.declarations = decls
    report.stale = stale

    # 1. candidate fields + their post-construction access sites
    accesses: dict[str, list[FieldAccess]] = {}
    for fi in program.functions.values():
        for acc in fi.accesses:
            accesses.setdefault(f"{acc.owner}.{acc.attr}", []).append(acc)

    for qual, ci in sorted(program.classes_by_qual.items()):
        constr = construction.get(qual, set())
        for attr, line in sorted(ci.init_fields.items()):
            if ci.find_lock(attr) is not None:
                continue  # the lock itself, not guarded state
            key = f"{qual}.{attr}"
            fg = FieldGuard(
                key=key, owner=qual, attr=attr,
                decl_path=ci.modinfo.src.path, decl_line=line,
            )
            for acc in accesses.get(key, ()):
                if acc.func in constr:
                    continue  # construction phase
                fg.sites.append(Site(
                    path=acc.path, line=acc.line, func=acc.func,
                    write=acc.write,
                    held=frozenset(acc.held) | entry.get(acc.func, frozenset()),
                    roots=roots_of.get(acc.func, frozenset({INDIRECT_ROOT})),
                ))
            fg.writes = sum(1 for s in fg.sites if s.write)
            fg.roots = frozenset().union(*(s.roots for s in fg.sites)) \
                if fg.sites else frozenset()
            report.fields[key] = fg
            report.total_sites += len(fg.sites)

    # 2. guard inference + violations
    for fg in report.fields.values():
        _infer_field(fg, decls.get(fg.key))

    # 3. waivers: subtract sanctioned sites; track consumption
    consumed: set[str] = set()
    for fg in report.fields.values():
        kept: list[tuple[Site, str]] = []
        for site, rule in fg.violations:
            waiver_key = f"{fg.key}@{site.func}"
            if waiver_key in WAIVERS:
                consumed.add(waiver_key)
                fg.waived.append(waiver_key)
            else:
                kept.append((site, rule))
        fg.violations = kept

    # 4. stale manifest entries
    guards_module = next(
        (m for m in module_list if m.modname.endswith("analysis.guards")), None
    )
    for waiver_key in sorted(WAIVERS):
        if waiver_key in consumed:
            continue
        field_key = waiver_key.split("@", 1)[0]
        if guards_module is None:
            continue
        line = _text_line(guards_module.text, waiver_key)
        if field_key not in report.fields:
            msg = f"waiver {waiver_key!r} names unknown field {field_key!r}"
        else:
            msg = (
                f"waiver {waiver_key!r} suppresses nothing — the access "
                f"is gone or now respects the guard; delete the entry"
            )
        report.stale.append(StaleEntry(
            kind="waiver", key=waiver_key,
            path=guards_module.path, line=line, message=msg,
        ))
    for key, decl in decls.items():
        if key not in report.fields:
            report.stale.append(StaleEntry(
                kind="declaration", key=key, path=decl.path, line=decl.line,
                message=f"tdp-guard declaration names unknown field {key!r}",
            ))
    return report


def _text_line(text: str, needle: str) -> int:
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    return 1


def _infer_field(fg: FieldGuard, decl: Declaration | None) -> None:
    """Fill ``guard``/``source``/``violations`` for one field."""
    sites = fg.sites
    n = len(sites)

    if decl is not None:
        fg.guard, fg.source = decl.guard, "declared"
        if decl.guard == VOLATILE:
            pass  # every race sanctioned by the declaration
        elif decl.guard.startswith(CONFINED_PREFIX):
            # An ``indirect`` site does not violate a *declared*
            # confinement: the declaration is the human asserting which
            # thread the dynamic dispatch runs on.
            root = decl.guard[len(CONFINED_PREFIX):]
            fg.violations = [
                (s, "thread-confined-escape")
                for s in sites if s.roots - {root, INDIRECT_ROOT}
            ]
        else:
            fg.violations = [
                (s, "guarded-field-unlocked")
                for s in sites if decl.guard not in s.held
            ]
        return

    if n == 0 or fg.writes == 0:
        fg.guard, fg.source = "final", "inferred"
        return

    if len(fg.roots) <= 1:
        only = next(iter(fg.roots)) if fg.roots else MAIN_ROOT
        if only != INDIRECT_ROOT:
            fg.guard, fg.source = f"{CONFINED_PREFIX}{only}", "inferred"
            return
        # every access via dynamic dispatch: fall through to lock vote

    # lock vote
    tally: dict[str, int] = {}
    for s in sites:
        for lock in s.held:
            tally[lock] = tally.get(lock, 0) + 1
    best, best_cov = None, 0
    for lock in sorted(tally):
        if tally[lock] > best_cov:
            best, best_cov = lock, tally[lock]
    if best is not None and best_cov >= 2 and best_cov / n >= SUPERMAJORITY:
        fg.guard, fg.source = best, "inferred"
        fg.violations = [
            (s, "guarded-field-unlocked") for s in sites if best not in s.held
        ]
        return

    # confinement vote: sites attributable to exactly one root
    root_tally: dict[str, int] = {}
    for s in sites:
        if len(s.roots) == 1:
            (r,) = s.roots
            if r != INDIRECT_ROOT:
                root_tally[r] = root_tally.get(r, 0) + 1
    best_root, root_cov = None, 0
    for r in sorted(root_tally):
        if root_tally[r] > root_cov:
            best_root, root_cov = r, root_tally[r]
    if best_root is not None and root_cov / n >= SUPERMAJORITY:
        fg.guard, fg.source = f"{CONFINED_PREFIX}{best_root}", "inferred"
        fg.violations = [
            (s, "thread-confined-escape")
            for s in sites if s.roots != frozenset({best_root})
        ]
        return

    fg.guard, fg.source = None, None  # ambiguous


#: one-entry memo so the four guard rules share a single inference per
#: engine invocation (the engine passes each program rule the same list)
_CACHE: dict[tuple, GuardReport] = {}


def infer_cached(modules: list[ModuleSource]) -> GuardReport:
    key = tuple((m.modname, m.path, hash(m.text)) for m in modules)
    if key not in _CACHE:
        _CACHE.clear()
        _CACHE[key] = infer(modules)
    return _CACHE[key]


# ---------------------------------------------------------------------------
# Lock-file serialization (guards.lock.json)
# ---------------------------------------------------------------------------


def to_lock(report: GuardReport) -> dict:
    """Render the inference as the committed ``guards.lock.json`` payload.

    Free of file/line information so refactors that do not change the
    guard discipline do not churn the artifact.
    """
    fields: dict[str, dict[str, Any]] = {}
    for key, fg in sorted(report.guarded_fields().items()):
        fields[key] = {
            "guard": fg.guard,
            "source": fg.source,
            # Witnessed = the runtime can actually check it: a lock
            # guard with no waived sites, backed by a tracked_* lock
            # (plain threading locks never appear in held_lock_keys()),
            # on a class with an instance __dict__ (the descriptor
            # stores the value and the armed flag there, so __slots__
            # classes are out of reach).
            "witness": bool(
                fg.lock_guarded
                and not fg.waived
                and fg.guard in report.tracked_lock_keys
                and fg.owner not in report.slotted_owners
            ),
        }
    return {
        "schema_version": LOCK_SCHEMA_VERSION,
        "fields": fields,
        "waivers": dict(sorted(WAIVERS.items())),
    }


def witnessed_fields(lock: dict) -> dict[str, str]:
    """``guards.lock.json`` payload -> {field key: guard lock key} for
    every field the runtime witness should wrap."""
    out: dict[str, str] = {}
    for key, spec in lock.get("fields", {}).items():
        guard = spec.get("guard", "")
        if spec.get("witness") and guard and not guard.startswith(CONFINED_PREFIX):
            out[key] = guard
    return out


def infer_from_tree(src_root: Any = None) -> GuardReport:
    """Run the inference over the installed source tree.

    ``src_root`` is the directory containing the ``repro`` package;
    defaults to the tree this module was imported from.
    """
    import pathlib

    from repro.analysis.engine import discover_files

    if src_root is None:
        src_root = pathlib.Path(__file__).resolve().parents[2]
    else:
        src_root = pathlib.Path(src_root)
    modules = [
        ModuleSource.parse(p)
        for p in discover_files([src_root / "repro"])
    ]
    return infer(modules)
