"""Whole-program wire-schema inference for the attribute-space protocol.

The TDP wire contract — which fields each ``OP_*`` frame carries, which
the server actually reads, what every reply contains and what the client
decodes — lives in dict literals scattered across the client encoders,
the server dispatch handlers, the store's batch sub-op interpreter, and
the notify path.  Butler/Gropp/Lusk (PAPERS.md) call this the
"informally specified interface" failure mode; this module makes the
contract explicit by *inferring* it from the code.

The inference is an abstract interpretation of frame construction and
consumption on both sides of the wire:

* **client request writes** — dict literals containing an ``"op"`` key
  whose value resolves to a ``protocol.OP_*`` constant, plus
  ``frame["k"] = v`` augmentations on the variable holding the literal
  (conditional augmentations become *optional* fields).  Frame-builder
  methods (a function returning such a dict) are resolved so
  ``dict(self._attach_frame(), req=...)`` counts as an attach frame.
  Dicts that sink into a list (``ops.append(op)``, list comprehensions,
  or a call whose parameter is appended to a list) are **batch sub-op
  envelopes**, tracked separately from top-level frames.
* **server request reads** — ``request.get("k")`` / ``request["k"]``
  accesses inside each ``_op_<value>`` handler, with one level of helper
  propagation (``self._context_of(request)`` counts as a read of
  ``context``).  ``.get`` is an optional read (its default is captured);
  a bare subscript is a required read.
* **server reply writes** — ``protocol.ok_reply(req, k=v)`` keywords,
  ``reply["k"] = v`` augmentations, and — for the push path — dict
  literals keyed ``"op": OP_NOTIFY`` whose ``**x.to_wire()`` expansions
  are resolved against :class:`~repro.attrspace.notify.Notification`.
* **client reply reads** — subscript/``.get`` accesses on variables
  bound to the result of a call that was passed a frame (``reply =
  self._rpc(frame)``); a reply that *escapes* (``return self._rpc(...)``,
  e.g. ``ping``) counts as reading every field.  A helper that is
  *handed* the frame and sends it (``establish(local_id, frame, ...)``)
  has its reads on the reply attributed to the op of each frame literal
  its callers pass.
* **batch sub-ops** — the store's ``_apply_one`` is interpreted with
  branch attribution (``if op == "put":`` scopes reads and the returned
  reply literal to the ``put`` sub-op schema); client-side sub-reply
  reads are attributed to the sub-op kinds built in the same function.
* **error frames** — ``error_fields``/``raise_error`` in the protocol
  module give the error-reply schema; the raised-exception inventory and
  the ``_ERROR_TYPES``/``_TYPE_NAMES`` wire maps feed the
  ``error-code-unmapped`` rule.

Types are inferred conservatively (literal constants, ``str(...)``-style
casts, parameter annotations, ``isinstance`` guards); a field whose type
cannot be pinned is ``any`` and never produces a mismatch finding.

The inferred schema serializes to the committed ``protocol.lock.json``
artifact (see :func:`to_lock` / ``python -m repro protocol dump``), and
the symmetry rules in :mod:`repro.analysis.rules.wire` consume it to
flag client<->server drift.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.analysis.core import (  # the lock-file helpers are re-exported
    ModuleSource,
    dotted_name,
    load_lock,
    lock_drift,
    render_lock,
)

PROTOCOL_MODULE = "repro.attrspace.protocol"
CLIENT_MODULE = "repro.attrspace.client"
SERVER_MODULE = "repro.attrspace.server"
STORE_MODULE = "repro.attrspace.store"
NOTIFY_MODULE = "repro.attrspace.notify"

#: The one module allowed to call ``json.dumps``/``json.loads`` on wire
#: data: the JSON body codec's seam.
CODEC_MODULE = PROTOCOL_MODULE

#: Fields the client plumbing stamps on every request after the encoder
#: built it (``_Session.submit`` adds ``req``; obs
#: tracing injects ``obs``), and the reply/notify plumbing every
#: consumer reads before routing.  They are part of the envelope, not of
#: any one op's schema.
REQUEST_PLUMBING = {"op", "req", "obs"}
REPLY_PLUMBING = {"reply_to", "ok", "obs"}
NOTIFY_PLUMBING = {"op", "obs"}
SUBOP_PLUMBING = {"op"}
SUBREPLY_PLUMBING = {"ok"}

#: Error-reply fields shared by whole-request error replies and per-
#: sub-op error entries (see ``protocol.error_fields``).
ERROR_FIELDS = {"ok", "error_type", "error", "attribute", "context"}

#: Deliberate asymmetries, each with its justification.  Keyed
#: ``"<schema>.<direction>.<field>"`` where ``<schema>`` is an op value,
#: ``batch:<subop>``, ``notify``, or ``error``.  Waivers are emitted
#: into the lock file so they stay visible and diffable.
WAIVERS: dict[str, str] = {
    "batch:get.request.block": (
        "server-side guard: a blocking get inside a batch would stall "
        "the positional reply, so the field is read only to reject it"
    ),
}

_MISSING = object()


# ---------------------------------------------------------------------------
# Schema model
# ---------------------------------------------------------------------------


@dataclass
class FieldUse:
    """One side's view of one frame field."""

    name: str
    #: writes: present unconditionally at every construction site;
    #: reads: at least one bare-subscript (KeyError-on-absence) access.
    required: bool = True
    types: set[str] = field(default_factory=set)
    #: reader-side ``.get`` default when it is a constant
    default: Any = _MISSING
    #: (path, line) evidence locations
    sites: list[tuple[str, int]] = field(default_factory=list)

    def merge_write(self, other: "FieldUse") -> None:
        self.types |= other.types
        self.sites.extend(other.sites)


@dataclass
class SideView:
    """All fields one party writes (or reads) for one frame kind."""

    fields: dict[str, FieldUse] = field(default_factory=dict)
    #: number of independent construction sites (writer side): a field
    #: is required only if present unconditionally at every one
    sites: int = 0
    #: reply escaped whole (``return self._rpc(...)``): every field of
    #: the counterpart's writes must be considered read
    escapes: bool = False


@dataclass
class OpSchema:
    """Producer and consumer views of one frame kind's two directions."""

    op: str
    request_writes: SideView = field(default_factory=SideView)
    request_reads: SideView = field(default_factory=SideView)
    reply_writes: SideView = field(default_factory=SideView)
    reply_reads: SideView = field(default_factory=SideView)
    #: the server has an ``_op_<op>`` handler or builds the frame as a
    #: push; the client builds the frame (a push: branches on it)
    on_server: bool = False
    on_client: bool = False


@dataclass
class ErrorSchema:
    """The protocol module's error wire maps plus the raised inventory."""

    #: wire name -> exception class name (``_ERROR_TYPES``)
    decode_map: dict[str, str] = field(default_factory=dict)
    #: exception class name -> wire name, in declaration order
    #: (``_TYPE_NAMES`` — order matters: ``error_fields`` walks it with
    #: ``isinstance``, so a base class listed before its subclass wins)
    encode_order: list[tuple[str, str]] = field(default_factory=list)
    #: exception class names raised in server-side dispatch modules,
    #: with one evidence site each
    raised: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: error_type strings the client synthesizes locally (outage
    #: replies); they must decode like any wire error
    synthesized: dict[str, tuple[str, int]] = field(default_factory=dict)
    #: where the maps live, for findings
    decode_map_site: tuple[str, int] | None = None
    encode_map_site: tuple[str, int] | None = None


@dataclass
class WireSchema:
    """The whole inferred contract."""

    ops: dict[str, OpSchema] = field(default_factory=dict)
    notify: OpSchema = field(default_factory=lambda: OpSchema("notify"))
    sub_ops: dict[str, OpSchema] = field(default_factory=dict)
    errors: ErrorSchema = field(default_factory=ErrorSchema)
    #: OP_* constant name -> value, from the protocol module
    op_constants: dict[str, str] = field(default_factory=dict)
    #: whether the store/notify modules were part of the inferred set
    #: (sub-op and notify symmetry checks are skipped otherwise)
    has_store: bool = False
    has_notify: bool = False


def waived(schema_key: str, direction: str, name: str) -> bool:
    return f"{schema_key}.{direction}.{name}" in WAIVERS


# ---------------------------------------------------------------------------
# Small AST helpers
# ---------------------------------------------------------------------------


def _const_type(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int: bool is an int subclass
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    if isinstance(value, (list, tuple)):
        return "list"
    if isinstance(value, dict):
        return "dict"
    return "any"


#: calls whose result type is their own name
_CAST_CALLS = {"str": "str", "int": "int", "float": "float", "bool": "bool",
               "list": "list", "dict": "dict", "sorted": "list"}


def _annotation_types(node: ast.AST | None) -> set[str]:
    """Type names from an annotation expression (``str``, ``float | None``)."""
    if node is None:
        return set()
    if isinstance(node, ast.Name) and node.id in _CAST_CALLS:
        return {_CAST_CALLS[node.id]}
    if isinstance(node, ast.Constant) and node.value is None:
        return {"null"}
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_types(node.left) | _annotation_types(node.right)
    if isinstance(node, ast.Subscript):
        # dict[str, Any] / list[int] — the container is the wire type
        return _annotation_types(node.value)
    return set()


def _param_annotations(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for arg in list(fn.args.posonlyargs) + list(fn.args.args) + list(fn.args.kwonlyargs):
        if arg.annotation is not None:
            types = _annotation_types(arg.annotation)
            if types:
                out[arg.arg] = types
    return out


def _expr_types(node: ast.AST, annotations: dict[str, set[str]]) -> set[str]:
    """Conservative type set for an expression; empty means unknown."""
    if isinstance(node, ast.Constant):
        return {_const_type(node.value)}
    if isinstance(node, ast.JoinedStr):
        return {"str"}
    if isinstance(node, (ast.List, ast.ListComp, ast.Tuple)):
        return {"list"}
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return {"dict"}
    if isinstance(node, (ast.Compare, ast.BoolOp)):
        return {"bool"}
    if isinstance(node, ast.Name):
        return set(annotations.get(node.id, set()))
    if isinstance(node, ast.Call):
        dn = dotted_name(node.func)
        if dn is not None and dn.split(".")[-1] in _CAST_CALLS:
            return {_CAST_CALLS[dn.split(".")[-1]]}
    if isinstance(node, ast.IfExp):
        return _expr_types(node.body, annotations) | _expr_types(node.orelse, annotations)
    return set()


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _isinstance_types(fn: ast.AST, var: str) -> set[str]:
    """Types asserted by ``isinstance(var, T)`` checks anywhere in fn."""
    types: set[str] = set()
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            continue
        target, spec = node.args
        if not (isinstance(target, ast.Name) and target.id == var):
            continue
        specs = spec.elts if isinstance(spec, ast.Tuple) else [spec]
        for s in specs:
            dn = dotted_name(s)
            if dn is not None and dn.split(".")[-1] in _CAST_CALLS:
                types.add(_CAST_CALLS[dn.split(".")[-1]])
    return types


# ---------------------------------------------------------------------------
# Protocol module: constants, error maps, error-reply schema
# ---------------------------------------------------------------------------


def op_constants(proto: ModuleSource) -> dict[str, str]:
    """Module-level ``OP_NAME = "value"`` assignments, name -> value."""
    out: dict[str, str] = {}
    for stmt in proto.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name) \
                and stmt.targets[0].id.startswith("OP_") \
                and isinstance(stmt.value, ast.Constant) \
                and isinstance(stmt.value.value, str):
            out[stmt.targets[0].id] = stmt.value.value
    return out


def _string_dict_literal(node: ast.AST) -> dict[str, str] | None:
    """``{"a": X, ...}`` or ``{X: "a", ...}`` where the other side is a
    dotted exception-class reference; returns str-key -> class-name."""
    if not isinstance(node, ast.Dict):
        return None
    out: dict[str, str] = {}
    for k, v in zip(node.keys, node.values):
        if k is None:
            return None
        if isinstance(k, ast.Constant) and isinstance(k.value, str):
            dn = dotted_name(v)
            if dn is None:
                return None
            out[k.value] = dn.split(".")[-1]
        else:
            dn = dotted_name(k)
            if dn is None or not (isinstance(v, ast.Constant) and isinstance(v.value, str)):
                return None
            out[dn.split(".")[-1]] = v.value
    return out


def _error_maps(proto: ModuleSource, schema: ErrorSchema) -> None:
    for stmt in proto.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if len(targets) != 1 or not isinstance(targets[0], ast.Name):
            continue
        name = targets[0].id
        if name == "_ERROR_TYPES" and isinstance(value, ast.Dict):
            parsed = _string_dict_literal(value)
            if parsed is not None:
                schema.decode_map = parsed
                schema.decode_map_site = (proto.path, stmt.lineno)
        elif name == "_TYPE_NAMES" and isinstance(value, ast.Dict):
            schema.encode_map_site = (proto.path, stmt.lineno)
            for k, v in zip(value.keys, value.values):
                dn = dotted_name(k) if k is not None else None
                if dn is not None and isinstance(v, ast.Constant) \
                        and isinstance(v.value, str):
                    schema.encode_order.append((dn.split(".")[-1], v.value))


def _error_reply_fields(proto: ModuleSource) -> SideView:
    """Fields written by ``error_fields`` (dict literal + augmentations)."""
    view = SideView(sites=1)
    for fn in _functions(proto.tree):
        if fn.name != "error_fields":
            continue
        ann = _param_annotations(fn)
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if value is None or len(targets) != 1:
                    continue
                target = targets[0]
                if isinstance(value, ast.Dict):  # the base literal
                    for k, v in zip(value.keys, value.values):
                        if isinstance(k, ast.Constant) and isinstance(k.value, str):
                            view.fields[k.value] = FieldUse(
                                k.value, required=True,
                                types=_expr_types(v, ann),
                                sites=[(proto.path, value.lineno)],
                            )
                elif isinstance(target, ast.Subscript) \
                        and isinstance(target.slice, ast.Constant) \
                        and isinstance(target.slice.value, str):
                    name = target.slice.value
                    use = view.fields.setdefault(
                        name, FieldUse(name, required=False, types=set()),
                    )
                    # re-binding an existing required field keeps it
                    # required; a fresh conditional add is optional
                    use.types |= _expr_types(value, ann)
                    use.sites.append((proto.path, node.lineno))
    return view


def _raise_error_reads(proto: ModuleSource) -> SideView:
    """Fields ``raise_error`` reads off an error reply."""
    view = SideView()
    for fn in _functions(proto.tree):
        if fn.name != "raise_error":
            continue
        param = fn.args.args[0].arg if fn.args.args else None
        if param:
            _collect_dict_reads(fn, param, view, proto.path, {})
    return view


# ---------------------------------------------------------------------------
# Generic read collection (server handlers, decode paths)
# ---------------------------------------------------------------------------


def _collect_dict_reads(
    scope: ast.AST,
    var: str,
    view: SideView,
    path: str,
    cast_env: dict[str, set[str]],
) -> None:
    """Record ``var["k"]`` / ``var.get("k", d)`` reads into ``view``.

    ``cast_env`` accumulates types for local names assigned from reads so
    a later ``isinstance(value, str)`` guard refines the field type.
    """
    assigned_from: dict[str, str] = {}  # local var -> field it was read into
    for node in ast.walk(scope):
        read_name = _read_field_name(node, var)
        if read_name is None:
            continue
        required = isinstance(node, ast.Subscript)
        default: Any = _MISSING
        types: set[str] = set()
        if not required and len(node.args) > 1 \
                and isinstance(node.args[1], ast.Constant):
            default = node.args[1].value
            if default is not None:
                types.add(_const_type(default))
        use = view.fields.get(read_name)
        if use is None:
            use = view.fields[read_name] = FieldUse(
                read_name, required=required, types=set(), default=default,
            )
        else:
            use.required = use.required or required
            if use.default is _MISSING:
                use.default = default
        use.types |= types
        use.sites.append((path, node.lineno))
    # second pass: casts and isinstance guards on read results
    for node in ast.walk(scope):
        if isinstance(node, ast.Call):
            dn = dotted_name(node.func)
            if dn is not None and dn.split(".")[-1] in _CAST_CALLS and node.args:
                inner = node.args[0]
                fname = _read_field_name(inner, var)
                if fname and fname in view.fields:
                    view.fields[fname].types.add(_CAST_CALLS[dn.split(".")[-1]])
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            fname = _read_field_name(node.value, var)
            if fname:
                assigned_from[node.targets[0].id] = fname
    for local, fname in assigned_from.items():
        if fname in view.fields:
            view.fields[fname].types |= _isinstance_types(scope, local)
            cast_env.setdefault(local, set()).update(view.fields[fname].types)


def _dict_read(node: ast.AST) -> tuple[str, str] | None:
    """(variable, field) when ``node`` is a ``var["k"]`` load or a
    ``var.get("k", ...)`` call."""
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
            and isinstance(node.slice, ast.Constant) \
            and isinstance(node.slice.value, str) \
            and isinstance(node.ctx, ast.Load):
        return node.value.id, node.slice.value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "get" \
            and isinstance(node.func.value, ast.Name) and node.args \
            and isinstance(node.args[0], ast.Constant) \
            and isinstance(node.args[0].value, str):
        return node.func.value.id, node.args[0].value
    return None


def _read_field_name(node: ast.AST, var: str) -> str | None:
    """The field name if ``node`` is ``var["k"]`` or ``var.get("k", ...)``."""
    read = _dict_read(node)
    return read[1] if read is not None and read[0] == var else None


# ---------------------------------------------------------------------------
# Client side: frame construction + reply reads
# ---------------------------------------------------------------------------


@dataclass
class _FrameSite:
    """One dict-literal (or builder-produced) frame in a client function."""

    op: str
    fields: dict[str, FieldUse]
    line: int
    conditional_fields: set[str]
    sub_op: bool = False
    #: builder *call* sites reuse a builder's frame; they bind variables
    #: but do not count as independent construction sites
    counts: bool = True


def _op_of_dict(node: ast.Dict, consts: dict[str, str]) -> str | None:
    """The op value of a dict literal carrying an ``"op"`` key, if any."""
    for k, v in zip(node.keys, node.values):
        if isinstance(k, ast.Constant) and k.value == "op":
            if isinstance(v, ast.Constant) and isinstance(v.value, str):
                return v.value
            dn = dotted_name(v)
            if dn is not None:
                return consts.get(dn.split(".")[-1])
    return None


def _list_sunk_params(module: ModuleSource) -> dict[str, set[int]]:
    """function name -> positional indexes of params appended to a list.

    Used to classify frame dicts passed through a helper like
    ``_BatchBuilder._queue`` (which appends its ``op`` argument to the
    pending sub-op list) as batch sub-ops rather than top-level frames.
    """
    out: dict[str, set[int]] = {}
    for fn in _functions(module.tree):
        params = [a.arg for a in fn.args.args]
        appended: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "append" and len(node.args) == 1 \
                    and isinstance(node.args[0], ast.Name):
                appended.add(node.args[0].id)
        indexes = {params.index(p) for p in appended if p in params}
        if indexes:
            out[fn.name] = indexes
    return out


def _in_conditional(fn: ast.AST, target: ast.AST) -> bool:
    """Is ``target`` nested under an If/Try/While/For within ``fn``?"""
    conditional_ids: set[int] = set()

    def mark(node: ast.AST, flag: bool) -> None:
        conditional_ids.add(id(node)) if flag else None
        for child in ast.iter_child_nodes(node):
            mark(child, flag or isinstance(
                node, (ast.If, ast.Try, ast.While, ast.For, ast.ExceptHandler)
            ))

    mark(fn, False)
    return id(target) in conditional_ids


def _notify_wire_fields(notify_mod: ModuleSource | None) -> tuple[SideView, SideView]:
    """(writes via ``to_wire``, reads via ``from_wire``) of Notification."""
    writes, reads = SideView(sites=1), SideView()
    if notify_mod is None:
        return writes, reads
    # dataclass annotations give the types
    ann: dict[str, set[str]] = {}
    for node in ast.walk(notify_mod.tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    types = _annotation_types(stmt.annotation)
                    if types:
                        ann[stmt.target.id] = types
    for fn in _functions(notify_mod.tree):
        if fn.name == "to_wire":
            for node in ast.walk(fn):
                if isinstance(node, ast.Dict):
                    for k, v in zip(node.keys, node.values):
                        if isinstance(k, ast.Constant) and isinstance(k.value, str):
                            types: set[str] = set()
                            if isinstance(v, ast.Attribute) and v.attr in ann:
                                types = set(ann[v.attr])
                            writes.fields[k.value] = FieldUse(
                                k.value, required=True, types=types,
                                sites=[(notify_mod.path, node.lineno)],
                            )
        elif fn.name == "from_wire":
            param = fn.args.args[0].arg if fn.args.args else None
            if param:
                _collect_dict_reads(fn, param, reads, notify_mod.path, {})
    return writes, reads


def _client_frames_and_reads(
    client: ModuleSource,
    consts: dict[str, str],
    schema: WireSchema,
    notify_reads: SideView,
) -> None:
    sunk = _list_sunk_params(client)
    param_readers = _param_readers(client)
    frame_senders = _frame_param_reply_reads(client)
    builders: dict[str, str] = {}  # method name -> op it builds

    # Pass 1: find builder methods (return a dict-literal frame).
    for fn in _functions(client.tree):
        returned: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
                returned.add(node.value.id)
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if value is None or len(targets) != 1 \
                        or not isinstance(targets[0], ast.Name):
                    continue
                if isinstance(value, ast.Dict) and targets[0].id in returned:
                    op = _op_of_dict(value, consts)
                    if op is not None:
                        builders[fn.name] = op

    # Pass 2: per-function frame sites, sub-op classification, reply reads.
    for fn in _functions(client.tree):
        ann = _param_annotations(fn)
        sites: list[_FrameSite] = []
        var_sites: dict[str, _FrameSite] = {}
        dict_site_ids: dict[int, _FrameSite] = {}

        def record_dict(node: ast.Dict, *, sub_op: bool) -> _FrameSite | None:
            op = _op_of_dict(node, consts)
            if op is None:
                return None
            fields: dict[str, FieldUse] = {}
            for k, v in zip(node.keys, node.values):
                if k is None:  # **expansion (notify path handles its own)
                    continue
                if isinstance(k, ast.Constant) and isinstance(k.value, str) \
                        and k.value != "op":
                    fields[k.value] = FieldUse(
                        k.value, required=True, types=_expr_types(v, ann),
                        sites=[(client.path, node.lineno)],
                    )
            site = _FrameSite(op, fields, node.lineno, set(), sub_op=sub_op)
            sites.append(site)
            dict_site_ids[id(node)] = site
            return site

        # (a) dict literals assigned to variables, with augmentations
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if value is None or len(targets) != 1 \
                        or not isinstance(targets[0], ast.Name):
                    continue
                target_name = targets[0].id
                if isinstance(value, ast.Dict):
                    site = record_dict(value, sub_op=False)
                    if site is not None:
                        var_sites[target_name] = site
                elif isinstance(value, ast.Call):
                    op = _builder_call_op(value, builders)
                    if op is not None:
                        site = _FrameSite(op, {}, value.lineno, set(),
                                          counts=False)
                        sites.append(site)
                        var_sites[target_name] = site
        # inline frame literals (dict args to _rpc/_send_async, list
        # comprehension elements) that no variable binds
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict) and id(node) not in dict_site_ids:
                record_dict(node, sub_op=False)

        # augmentations: var["k"] = expr
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Subscript):
                target = node.targets[0]
                if isinstance(target.value, ast.Name) \
                        and target.value.id in var_sites \
                        and isinstance(target.slice, ast.Constant) \
                        and isinstance(target.slice.value, str):
                    site = var_sites[target.value.id]
                    name = target.slice.value
                    conditional = _in_conditional(fn, node)
                    use = site.fields.get(name)
                    if use is None:
                        use = site.fields[name] = FieldUse(
                            name, required=not conditional,
                            types=set(), sites=[],
                        )
                    use.types |= _expr_types(node.value, ann)
                    use.sites.append((client.path, node.lineno))
                    if conditional:
                        site.conditional_fields.add(name)
                        use.required = False

        # (b) classify sub-op sites by their sinks
        parents: dict[int, ast.AST] = {}
        for node in ast.walk(fn):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict) and id(node) in dict_site_ids:
                parent = parents.get(id(node))
                if isinstance(parent, (ast.List, ast.ListComp)) or (
                    isinstance(parent, ast.comprehension)
                ):
                    dict_site_ids[id(node)].sub_op = True
            # generator/listcomp element: dict is the .elt of the comp
            if isinstance(node, ast.ListComp) and isinstance(node.elt, ast.Dict) \
                    and id(node.elt) in dict_site_ids:
                dict_site_ids[id(node.elt)].sub_op = True
            if isinstance(node, ast.Call):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) \
                    else (node.func.id if isinstance(node.func, ast.Name) else None)
                for i, arg in enumerate(node.args):
                    target_site = None
                    if isinstance(arg, ast.Name) and arg.id in var_sites:
                        target_site = var_sites[arg.id]
                    elif isinstance(arg, ast.Dict) and id(arg) in dict_site_ids:
                        target_site = dict_site_ids[id(arg)]
                    if target_site is None:
                        continue
                    if callee == "append" or (
                        callee in sunk and i + 1 in sunk[callee]
                    ):
                        target_site.sub_op = True

        # (c) merge sites into the schema
        for site in sites:
            if not site.counts and not site.fields:
                continue
            table = schema.sub_ops if site.sub_op else schema.ops
            entry = table.get(site.op)
            if entry is None:
                entry = table[site.op] = OpSchema(site.op)
            entry.on_client = entry.on_client or not site.sub_op
            if site.counts:
                _merge_write_site(entry.request_writes, site)
            else:
                # extra fields stamped onto a builder's frame at a call
                # site are optional riders on the builder's schema
                for use in site.fields.values():
                    use.required = False
                    _merge_read(entry.request_writes, use)

        # (d) reply-variable binding and reads
        reply_vars: dict[str, str] = {}  # var -> op
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Call):
                if node.targets[0].id in var_sites:
                    # a frame var (``attach = dict(self._attach_frame(),
                    # req=...)``), not the reply to one
                    continue
                op = _frame_arg_op(node.value, var_sites, dict_site_ids, builders, consts)
                if op is not None:
                    reply_vars[node.targets[0].id] = op
            elif isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
                dn = dotted_name(node.value.func)
                if dn is not None and dn.split(".")[-1] in frame_senders:
                    continue  # returns the helper's own result, not the reply
                op = _frame_arg_op(node.value, var_sites, dict_site_ids, builders, consts)
                if op is not None and op in schema.ops:
                    schema.ops[op].reply_reads.escapes = True
        for var, op in reply_vars.items():
            entry = schema.ops.get(op)
            if entry is None:
                entry = schema.ops[op] = OpSchema(op)
            _collect_dict_reads(fn, var, entry.reply_reads, client.path, {})

        # one-level helper propagation: a reply (or the result of a call
        # that was passed a frame) handed to a local helper counts the
        # helper's reads on that parameter, e.g.
        # ``self._adopt_attach_reply(reply)``;
        # and the mirror image, a frame handed to a local helper that
        # sends it counts the helper's reads on the reply
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            dn = dotted_name(node.func)
            callee = dn.split(".")[-1] if dn else None
            for i, arg in enumerate(node.args):
                op = None
                helpers = param_readers
                if isinstance(arg, ast.Name) and arg.id in reply_vars:
                    op = reply_vars[arg.id]
                elif isinstance(arg, ast.Call):
                    op = _frame_arg_op(
                        arg, var_sites, dict_site_ids, builders, consts
                    )
                else:
                    site = (
                        var_sites.get(arg.id) if isinstance(arg, ast.Name)
                        else dict_site_ids.get(id(arg))
                    )
                    if site is not None:
                        op, helpers = site.op, frame_senders
                if op is None or callee not in helpers:
                    continue
                entry = schema.ops.setdefault(op, OpSchema(op))
                for offset in (0, 1):  # implicit self on bound calls
                    helper_view = helpers[callee].get(i + offset)
                    if helper_view is not None:
                        for use in helper_view.fields.values():
                            _merge_read(entry.reply_reads, use)

        # (e) sub-reply reads: dict reads on vars that are neither frame
        # vars nor top-level reply vars, in a function that builds
        # sub-ops, belong to those sub-op kinds' replies
        kinds = {s.op for s in sites if s.sub_op}
        if kinds:
            bound = set(reply_vars) | set(var_sites)
            sub_view = SideView()
            for node in ast.walk(fn):
                var = _any_dict_read_var(node)
                if var is not None and var not in bound:
                    _collect_dict_reads_single(node, sub_view, client.path)
            for kind in kinds:
                entry = schema.sub_ops.setdefault(kind, OpSchema(kind))
                for name, use in sub_view.fields.items():
                    _merge_read(entry.reply_reads, use)

        # (f) notify reads: branch on message.get("op") == OP_NOTIFY
        for node in ast.walk(fn):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if not (isinstance(test, ast.Compare) and len(test.ops) == 1
                    and isinstance(test.ops[0], ast.Eq)):
                continue
            var = _any_dict_read_var(test.left)
            rhs = test.comparators[0]
            rhs_dn = dotted_name(rhs)
            rhs_op = consts.get(rhs_dn.split(".")[-1]) if rhs_dn else (
                rhs.value if isinstance(rhs, ast.Constant) else None
            )
            if var is None or rhs_op != consts.get("OP_NOTIFY", "notify"):
                continue
            schema.notify.on_client = True
            branch = ast.Module(body=node.body, type_ignores=[])
            _collect_dict_reads(branch, var, schema.notify.reply_reads, client.path, {})
            for call in ast.walk(branch):
                if isinstance(call, ast.Call):
                    dn = dotted_name(call.func)
                    if dn is not None and dn.split(".")[-1] == "from_wire":
                        for name, use in notify_reads.fields.items():
                            _merge_read(schema.notify.reply_reads, use)


def _any_dict_read_var(node: ast.AST) -> str | None:
    """The variable a ``var["k"]``/``var.get("k")`` expression reads."""
    read = _dict_read(node)
    return read[0] if read is not None else None


def _collect_dict_reads_single(node: ast.AST, view: SideView, path: str) -> None:
    read = _dict_read(node)
    if read is None:
        return
    name = read[1]
    required = isinstance(node, ast.Subscript)
    default: Any = _MISSING
    if not required and len(node.args) > 1 \
            and isinstance(node.args[1], ast.Constant):
        default = node.args[1].value
    use = view.fields.get(name)
    if use is None:
        use = view.fields[name] = FieldUse(name, required=required, types=set(),
                                           default=default)
    else:
        use.required = use.required or required
    use.sites.append((path, node.lineno))


def _builder_call_op(call: ast.Call, builders: dict[str, str]) -> str | None:
    """Op built by ``self._x_frame()`` or ``dict(self._x_frame(), ...)``."""
    dn = dotted_name(call.func)
    if dn is not None and dn.split(".")[-1] in builders:
        return builders[dn.split(".")[-1]]
    if dn == "dict" and call.args:
        inner = call.args[0]
        if isinstance(inner, ast.Call):
            idn = dotted_name(inner.func)
            if idn is not None and idn.split(".")[-1] in builders:
                return builders[idn.split(".")[-1]]
    return None


def _frame_arg_op(
    call: ast.Call,
    var_sites: dict[str, _FrameSite],
    dict_site_ids: dict[int, _FrameSite],
    builders: dict[str, str],
    consts: dict[str, str],
) -> str | None:
    """Op of the frame (if any) flowing into ``call`` as an argument."""
    for arg in call.args:
        if isinstance(arg, ast.Name) and arg.id in var_sites:
            return var_sites[arg.id].op
        if isinstance(arg, ast.Dict):
            if id(arg) in dict_site_ids:
                return dict_site_ids[id(arg)].op
            op = _op_of_dict(arg, consts)
            if op is not None:
                return op
        if isinstance(arg, ast.Call):
            op = _builder_call_op(arg, builders)
            if op is not None:
                return op
    return None


def _merge_write_site(view: SideView, site: _FrameSite) -> None:
    """Merge one construction site: required = present at every site."""
    view.sites += 1
    for name, use in site.fields.items():
        existing = view.fields.get(name)
        if existing is None:
            copied = FieldUse(name, required=use.required, types=set(use.types),
                              sites=list(use.sites))
            view.fields[name] = copied
        else:
            existing.merge_write(use)
            existing.required = existing.required and use.required
    # fields missing from this site become optional
    for name, existing in view.fields.items():
        if name not in site.fields:
            existing.required = False


def _merge_read(view: SideView, use: FieldUse) -> None:
    existing = view.fields.get(use.name)
    if existing is None:
        view.fields[use.name] = FieldUse(
            use.name, required=use.required, types=set(use.types),
            default=use.default, sites=list(use.sites),
        )
    else:
        existing.required = existing.required or use.required
        existing.types |= use.types
        existing.sites.extend(use.sites)


# ---------------------------------------------------------------------------
# Server side: handler reads + reply writes + notify writes
# ---------------------------------------------------------------------------


def _param_readers(module: ModuleSource) -> dict[str, dict[int, SideView]]:
    """Helper functions' reads on their params: name -> {index: reads}.

    One level of propagation on either side: ``self._context_of(request)``
    in a server handler unions ``_context_of``'s reads on its parameter
    into the handler's request reads; ``self._adopt_attach_reply(reply)``
    does the same for client-side reply reads.
    """
    out: dict[str, dict[int, SideView]] = {}
    for fn in _functions(module.tree):
        params = [a.arg for a in fn.args.args]
        for i, p in enumerate(params):
            view = SideView()
            _collect_dict_reads(fn, p, view, module.path, {})
            if view.fields:
                out.setdefault(fn.name, {})[i] = view
    return out


def _frame_param_reply_reads(module: ModuleSource) -> dict[str, dict[int, SideView]]:
    """Reply reads of helpers that send a frame they were handed.

    For ``def establish(self, local_id, frame, ...)`` containing
    ``reply = self.call(frame, ...)`` this maps ``"establish"`` ->
    {index of ``frame``: the reads (and casts) on ``reply``}.
    """
    out: dict[str, dict[int, SideView]] = {}
    for fn in _functions(module.tree):
        params = [a.arg for a in fn.args.args]
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)):
                continue
            for arg in node.value.args:
                if isinstance(arg, ast.Name) and arg.id in params:
                    view = SideView()
                    _collect_dict_reads(fn, node.targets[0].id, view, module.path, {})
                    if view.fields:
                        out.setdefault(fn.name, {})[params.index(arg.id)] = view
    return out


def _server_handlers(
    server: ModuleSource,
    consts: dict[str, str],
    schema: WireSchema,
    notify_writes: SideView,
) -> None:
    values = set(consts.values())
    readers = _param_readers(server)
    for fn in _functions(server.tree):
        if not fn.name.startswith("_op_"):
            continue
        op = fn.name[len("_op_"):]
        if op not in values:
            continue
        entry = schema.ops.setdefault(op, OpSchema(op))
        entry.on_server = True
        params = [a.arg for a in fn.args.args]
        request_param = params[-1] if params else None
        ann = _param_annotations(fn)

        if request_param:
            _collect_dict_reads(fn, request_param, entry.request_reads,
                                server.path, {})
            # one-level helper propagation
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                dn = dotted_name(node.func)
                if dn is None:
                    continue
                callee = dn.split(".")[-1]
                if callee not in readers:
                    continue
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Name) and arg.id == request_param:
                        # account for the implicit self on bound calls
                        for offset in (0, 1):
                            helper_view = readers[callee].get(i + offset)
                            if helper_view is not None:
                                for use in helper_view.fields.values():
                                    _merge_read(entry.request_reads, use)

        # reply writes: ok_reply keywords + reply-var augmentations
        reply_vars: set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                dn = dotted_name(node.func)
                if dn is not None and dn.split(".")[-1] == "ok_reply":
                    site = _FrameSite(op, {}, node.lineno, set())
                    for kw in node.keywords:
                        if kw.arg is not None:
                            site.fields[kw.arg] = FieldUse(
                                kw.arg, required=True,
                                types=_expr_types(kw.value, ann),
                                sites=[(server.path, node.lineno)],
                            )
                    _merge_write_site(entry.reply_writes, site)
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and isinstance(node.value, ast.Call):
                dn = dotted_name(node.value.func)
                if dn is not None and dn.split(".")[-1] == "ok_reply":
                    reply_vars.add(node.targets[0].id)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Subscript):
                target = node.targets[0]
                if isinstance(target.value, ast.Name) \
                        and target.value.id in reply_vars \
                        and isinstance(target.slice, ast.Constant) \
                        and isinstance(target.slice.value, str):
                    name = target.slice.value
                    use = entry.reply_writes.fields.setdefault(
                        name, FieldUse(name, required=False, types=set()),
                    )
                    use.required = False
                    use.types |= _expr_types(node.value, ann)
                    use.sites.append((server.path, node.lineno))

    # notify push frames, wherever the server builds them (the delivery
    # closure is shared by both subscribe handlers, so it lives outside
    # any one ``_op_*`` body)
    for node in ast.walk(server.tree):
        if isinstance(node, ast.Dict) \
                and _op_of_dict(node, consts) == consts.get("OP_NOTIFY", "notify"):
            schema.notify.on_server = True
            site = _FrameSite("notify", {}, node.lineno, set())
            for k, v in zip(node.keys, node.values):
                if k is None:
                    # **x.to_wire() expansion
                    if isinstance(v, ast.Call):
                        dn = dotted_name(v.func)
                        if dn is not None and dn.split(".")[-1] == "to_wire":
                            for nm, use in notify_writes.fields.items():
                                site.fields[nm] = FieldUse(
                                    nm, required=use.required,
                                    types=set(use.types),
                                    sites=list(use.sites),
                                )
                    continue
                if isinstance(k, ast.Constant) and isinstance(k.value, str) \
                        and k.value != "op":
                    site.fields[k.value] = FieldUse(
                        k.value, required=True,
                        types=_expr_types(v, {}),
                        sites=[(server.path, node.lineno)],
                    )
            _merge_write_site(schema.notify.reply_writes, site)


def _store_sub_ops(store: ModuleSource, schema: WireSchema) -> None:
    """Interpret ``_apply_one`` with branch attribution on ``op == X``."""
    for fn in _functions(store.tree):
        if fn.name != "_apply_one":
            continue
        params = [a.arg for a in fn.args.args]
        # the sub-op dict is the first non-self parameter
        sub_param = next((p for p in params if p != "self"), None)
        if sub_param is None:
            continue

        # locate op-comparison branches
        branch_bodies: dict[str, list[ast.stmt]] = {}
        branched_ids: set[int] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            if isinstance(test, ast.Compare) and len(test.ops) == 1 \
                    and isinstance(test.ops[0], ast.Eq) \
                    and isinstance(test.left, ast.Name) \
                    and test.left.id == "op" \
                    and isinstance(test.comparators[0], ast.Constant) \
                    and isinstance(test.comparators[0].value, str):
                kind = test.comparators[0].value
                branch_bodies[kind] = node.body
                for stmt in node.body:
                    for sub_node in ast.walk(stmt):
                        branched_ids.add(id(sub_node))

        # common reads: everything outside any op branch
        common = SideView()
        for node in ast.walk(fn):
            if id(node) not in branched_ids \
                    and _any_dict_read_var(node) == sub_param:
                _collect_dict_reads_single(node, common, store.path)

        for kind, body in branch_bodies.items():
            entry = schema.sub_ops.setdefault(kind, OpSchema(kind))
            branch = ast.Module(body=body, type_ignores=[])
            _collect_dict_reads(branch, sub_param, entry.request_reads,
                                store.path, {})
            for use in common.fields.values():
                _merge_read(entry.request_reads, use)
            # the returned dict literal is the sub-reply
            for node in ast.walk(branch):
                if isinstance(node, ast.Return) and isinstance(node.value, ast.Dict):
                    site = _FrameSite(kind, {}, node.lineno, set())
                    for k, v in zip(node.value.keys, node.value.values):
                        if isinstance(k, ast.Constant) and isinstance(k.value, str):
                            site.fields[k.value] = FieldUse(
                                k.value, required=True, types=set(),
                                sites=[(store.path, node.lineno)],
                            )
                    _merge_write_site(entry.reply_writes, site)


# ---------------------------------------------------------------------------
# Error inventory
# ---------------------------------------------------------------------------

#: modules whose raised exceptions must be wire-mappable (the server's
#: dispatch path: handlers, the store they call into, and the name/value
#: validators)
DISPATCH_MODULES = (SERVER_MODULE, STORE_MODULE, "repro.util.strings")


def _raised_errors(modules: list[ModuleSource], schema: ErrorSchema) -> None:
    for module in modules:
        if module.modname not in DISPATCH_MODULES:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            dn = dotted_name(exc)
            if dn is None:
                continue
            name = dn.split(".")[-1]
            if name.endswith("Error") and name not in schema.raised:
                schema.raised[name] = (module.path, node.lineno)


def _synthesized_error_types(client: ModuleSource, schema: ErrorSchema) -> None:
    """String literals the client feeds into locally synthesized error
    replies (``_fail_pending("space_closed", ...)``); they must decode
    like wire errors."""
    fail_fn = None
    for fn in _functions(client.tree):
        if fn.name == "_fail_pending":
            fail_fn = fn.name
    if fail_fn is None:
        return
    for node in ast.walk(client.tree):
        if isinstance(node, ast.Call):
            dn = dotted_name(node.func)
            if dn is not None and dn.split(".")[-1] == fail_fn and node.args:
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    schema.synthesized.setdefault(
                        first.value, (client.path, node.lineno)
                    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def infer(modules: Iterable[ModuleSource]) -> WireSchema | None:
    """Infer the wire schema from a parsed module set.

    Returns ``None`` when the protocol/client/server trio is not part of
    the set (fixture trees, partial lints) — callers should stay silent.
    """
    by_name = {m.modname: m for m in modules}
    proto = by_name.get(PROTOCOL_MODULE)
    client = by_name.get(CLIENT_MODULE)
    server = by_name.get(SERVER_MODULE)
    if proto is None or client is None or server is None:
        return None
    store = by_name.get(STORE_MODULE)
    notify_mod = by_name.get(NOTIFY_MODULE)

    schema = WireSchema()
    schema.has_store = store is not None
    schema.has_notify = notify_mod is not None
    schema.op_constants = op_constants(proto)
    _error_maps(proto, schema.errors)
    notify_writes, notify_reads = _notify_wire_fields(notify_mod)
    _client_frames_and_reads(client, schema.op_constants, schema, notify_reads)
    _server_handlers(server, schema.op_constants, schema, notify_writes)
    if store is not None:
        _store_sub_ops(store, schema)
    _raised_errors(list(by_name.values()), schema.errors)
    _synthesized_error_types(client, schema.errors)
    # the error reply is a schema of its own
    err_entry = OpSchema("error")
    err_entry.reply_writes = _error_reply_fields(proto)
    err_entry.reply_reads = _raise_error_reads(proto)
    schema.ops.setdefault("error", err_entry)
    return schema


#: one-entry memo so the four wire rules share a single inference per
#: engine invocation (the engine passes each program rule the same list)
_CACHE: dict[tuple, WireSchema | None] = {}


def infer_cached(modules: list[ModuleSource]) -> WireSchema | None:
    key = tuple((m.modname, m.path, hash(m.text)) for m in modules)
    if key not in _CACHE:
        _CACHE.clear()
        _CACHE[key] = infer(modules)
    return _CACHE[key]


# ---------------------------------------------------------------------------
# Lock-file serialization
# ---------------------------------------------------------------------------

LOCK_SCHEMA_VERSION = 1


def _lock_fields(writes: SideView, reads: SideView, plumbing: set[str]) -> dict:
    out: dict[str, dict] = {}
    names = (set(writes.fields) | set(reads.fields)) - plumbing
    for name in sorted(names):
        w = writes.fields.get(name)
        r = reads.fields.get(name)
        types = set()
        if w is not None:
            types |= w.types
        if r is not None:
            types |= r.types
        spec: dict[str, Any] = {
            "required": bool(w.required) if w is not None else False,
            "types": sorted(types) if types else ["any"],
        }
        if r is not None and not r.required and r.default is not _MISSING \
                and isinstance(r.default, (str, int, float, bool, type(None))):
            spec["reader_default"] = r.default
        out[name] = spec
    return out


def to_lock(schema: WireSchema) -> dict:
    """Render the inferred schema as the ``protocol.lock.json`` payload.

    Deliberately free of file/line information so refactors that do not
    change the wire contract do not churn the artifact.
    """
    ops: dict[str, dict] = {}
    for op in sorted(schema.ops):
        if op == "error":
            continue
        entry = schema.ops[op]
        ops[op] = {
            "request": _lock_fields(
                entry.request_writes, entry.request_reads, REQUEST_PLUMBING
            ),
            "reply": _lock_fields(
                entry.reply_writes, entry.reply_reads, REPLY_PLUMBING
            ),
        }
    sub_ops: dict[str, dict] = {}
    for kind in sorted(schema.sub_ops):
        entry = schema.sub_ops[kind]
        sub_ops[kind] = {
            "request": _lock_fields(
                entry.request_writes, entry.request_reads, SUBOP_PLUMBING
            ),
            "reply": _lock_fields(
                entry.reply_writes, entry.reply_reads, SUBREPLY_PLUMBING
            ),
        }
    error_entry = schema.ops.get("error", OpSchema("error"))
    return {
        "schema_version": LOCK_SCHEMA_VERSION,
        "codec_module": CODEC_MODULE,
        "plumbing": {
            "request": sorted(REQUEST_PLUMBING),
            "reply": sorted(REPLY_PLUMBING),
            "notify": sorted(NOTIFY_PLUMBING),
        },
        "ops": ops,
        "notify": _lock_fields(
            schema.notify.reply_writes, schema.notify.reply_reads, NOTIFY_PLUMBING
        ),
        "batch_sub_ops": sub_ops,
        "error_reply": _lock_fields(
            error_entry.reply_writes, error_entry.reply_reads, {"ok"}
        ),
        "errors": dict(sorted(schema.errors.decode_map.items())),
        "waivers": dict(sorted(WAIVERS.items())),
    }


# ---------------------------------------------------------------------------
# Lock-file workflow (``python -m repro protocol dump|check``)
# ---------------------------------------------------------------------------

#: attrspace modules the inference reads (relative to the package dir)
_WIRE_SOURCES = ("protocol.py", "client.py", "server.py", "store.py", "notify.py")
#: plus the validators the dispatch path raises through
_EXTRA_SOURCES = ("util/strings.py",)

LOCK_FILENAME = "protocol.lock.json"


def infer_from_tree(src_root: Any = None) -> WireSchema:
    """Infer the schema from the installed source tree.

    ``src_root`` is the directory containing the ``repro`` package;
    defaults to the tree this module was imported from.
    """
    import pathlib

    if src_root is None:
        src_root = pathlib.Path(__file__).resolve().parents[2]
    else:
        src_root = pathlib.Path(src_root)
    paths = [src_root / "repro" / "attrspace" / name for name in _WIRE_SOURCES]
    paths += [src_root / "repro" / pathlib.PurePosixPath(p) for p in _EXTRA_SOURCES]
    modules = [ModuleSource.parse(p) for p in paths if p.exists()]
    schema = infer(modules)
    if schema is None:
        raise RuntimeError(
            f"wire inference needs {PROTOCOL_MODULE}, {CLIENT_MODULE} and "
            f"{SERVER_MODULE} under {src_root}"
        )
    return schema


# ---------------------------------------------------------------------------
# Runtime frame validation (round-trip conformance tests)
# ---------------------------------------------------------------------------

_JSON_TYPE_NAMES = {
    str: "str", int: "int", float: "float", bool: "bool",
    list: "list", dict: "dict", type(None): "null",
}


def _value_type(value: Any) -> str:
    if isinstance(value, bool):
        return "bool"
    for t, name in _JSON_TYPE_NAMES.items():
        if isinstance(value, t):
            return name
    return "any"


def _types_compatible(value_type: str, declared: list[str]) -> bool:
    if "any" in declared or value_type == "any":
        return True
    if value_type in declared:
        return True
    # JSON erases the int/float distinction for whole numbers
    return value_type in ("int", "float") and (
        "int" in declared or "float" in declared
    )


def validate_frame(lock: dict, frame: dict, kind: str) -> list[str]:
    """Check one concrete frame against a lock-file schema section.

    ``kind`` is ``"<op>.request"``, ``"<op>.reply"``, ``"notify"``,
    ``"error"`` (a whole-request error reply), ``"batch:<subop>.request"``,
    or ``"batch:<subop>.reply"``.  Returns human-readable problem strings
    (empty = conformant).
    """
    problems: list[str] = []
    if kind == "notify":
        section = lock.get("notify", {})
        plumbing = set(lock["plumbing"]["notify"]) | {"sub"}
    elif kind == "error":
        section = lock.get("error_reply", {})
        plumbing = set(lock["plumbing"]["reply"])
    elif kind.startswith("batch:"):
        rest, direction = kind.split(".", 1)
        section = lock.get("batch_sub_ops", {}).get(
            rest.split(":", 1)[1], {}
        ).get(direction)
        plumbing = {"op"} if direction == "request" else {"ok"}
        if section is None:
            return [f"unknown sub-op schema {kind!r}"]
    else:
        op, direction = kind.split(".", 1)
        section = lock.get("ops", {}).get(op, {}).get(direction)
        plumbing = set(lock["plumbing"][direction if direction in ("request", "reply") else "request"])
        if section is None:
            return [f"unknown op schema {kind!r}"]
    for name, spec in section.items():
        if spec.get("required") and name not in frame:
            problems.append(f"missing required field {name!r}")
        if name in frame and not _types_compatible(
            _value_type(frame[name]), spec.get("types", ["any"])
        ):
            problems.append(
                f"field {name!r} has type {_value_type(frame[name])}, "
                f"schema allows {spec.get('types')}"
            )
    for name in frame:
        if name not in section and name not in plumbing:
            problems.append(f"unknown field {name!r}")
    return problems
