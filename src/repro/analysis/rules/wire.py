"""Wire-contract symmetry rules built on the wire-schema inference pass.

:mod:`repro.analysis.wireschema` abstract-interprets frame construction
and consumption on both sides of the attribute-space protocol.  The
rules here compare the two views:

* ``frame-field-unread`` — a field one side writes that the other never
  reads: dead wire surface, or a reader that silently lost a field.
* ``frame-field-phantom`` — a field one side reads that the other never
  writes: a ``.get(...)`` default silently masking protocol drift.
* ``frame-field-type-mismatch`` — both sides agree the field exists but
  pin incompatible types for it.
* ``error-code-unmapped`` — every ``TdpError`` subclass raised on the
  dispatch path must encode to a wire ``error_type`` that decodes back
  to the same class (and the encode/decode maps must be a bijection with
  subclasses listed before their bases).

* ``protocol-exhaustiveness`` — every ``OP_*`` constant of the protocol
  module has a server handler (``_op_<value>``) or push site, and a
  frame the client builds (for a push, a branch on it): a constant
  without one is a request answered ``unknown op``, or dead surface.

All five are :class:`ProgramRule`s sharing one cached inference per lint
invocation, and all stay silent when the protocol/client/server trio is
not part of the linted set (fixture trees, partial lints).

``raw-wire-codec`` is the odd one out: a per-module rule confining
``json.dumps``/``json.loads`` and json's encoder and scanner
(``JSONEncoder``, ``JSONDecoder``, ``json.encoder``, ``json.decoder``,
``json.scanner``) to the sanctioned codec module
(``attrspace/protocol.py``) inside the wire-facing packages, so a codec
swaps in behind a single seam.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    ModuleSource,
    ProgramRule,
    Rule,
    dotted_name,
    import_origins,
    register,
    register_program,
    resolve_name,
)
from repro.analysis import wireschema
from repro.analysis.wireschema import (
    CODEC_MODULE,
    NOTIFY_PLUMBING,
    REPLY_PLUMBING,
    REQUEST_PLUMBING,
    SUBOP_PLUMBING,
    SUBREPLY_PLUMBING,
    FieldUse,
    OpSchema,
    SideView,
    WireSchema,
    waived,
)


def _site(use: FieldUse, fallback: tuple[str, int]) -> tuple[str, int]:
    return use.sites[0] if use.sites else fallback


def _schemas(schema: WireSchema) -> Iterator[tuple[str, str, OpSchema]]:
    """(schema key, human label, entry) for every comparable frame kind."""
    for op in sorted(schema.ops):
        if op == "error":
            continue
        yield op, f"op {op!r}", schema.ops[op]
    if schema.has_store:
        for kind in sorted(schema.sub_ops):
            yield f"batch:{kind}", f"batch sub-op {kind!r}", schema.sub_ops[kind]
    yield "notify", "notify push", schema.notify
    yield "error", "error reply", schema.ops["error"]


def _directions(
    key: str, entry: OpSchema
) -> Iterator[tuple[str, SideView, SideView, set[str], str, str]]:
    """(direction, writes, reads, plumbing, writer, reader) pairs."""
    if key == "notify":
        yield ("reply", entry.reply_writes, entry.reply_reads,
               set(NOTIFY_PLUMBING) | {"sub"}, "server", "client")
        return
    if key == "error":
        yield ("reply", entry.reply_writes, entry.reply_reads,
               {"ok"}, "server", "client")
        return
    if key.startswith("batch:"):
        yield ("request", entry.request_writes, entry.request_reads,
               set(SUBOP_PLUMBING), "client", "store")
        yield ("reply", entry.reply_writes, entry.reply_reads,
               set(SUBREPLY_PLUMBING), "store", "client")
        return
    yield ("request", entry.request_writes, entry.request_reads,
           set(REQUEST_PLUMBING), "client", "server")
    yield ("reply", entry.reply_writes, entry.reply_reads,
           set(REPLY_PLUMBING), "server", "client")


class _WireRule(ProgramRule):
    """Shared silent-unless-complete scaffolding."""

    def check_program(self, modules: list[ModuleSource]) -> Iterator[Finding]:
        schema = wireschema.infer_cached(modules)
        if schema is None:
            return
        yield from self.check_schema(schema)

    def check_schema(self, schema: WireSchema) -> Iterator[Finding]:
        raise NotImplementedError


@register_program
class ProtocolExhaustivenessRule(ProgramRule):
    name = "protocol-exhaustiveness"
    description = (
        "every OP_* constant in attrspace/protocol.py has a server "
        "dispatch branch and a client encoder"
    )

    def check_program(self, modules: list[ModuleSource]) -> Iterator[Finding]:
        schema = wireschema.infer_cached(modules)
        if schema is None:
            return
        proto = next(m for m in modules if m.modname == wireschema.PROTOCOL_MODULE)
        for stmt in proto.tree.body:
            if not isinstance(stmt, ast.Assign):
                continue
            name = dotted_name(stmt.targets[0])
            value = schema.op_constants.get(name or "")
            if value is None:
                continue
            entry = schema.notify if name == "OP_NOTIFY" \
                else schema.ops.get(value, OpSchema(value))
            if not entry.on_server:
                yield self.finding_at(
                    proto.path, stmt.lineno,
                    f"{name} ({value!r}) has no dispatch branch "
                    f"(_op_{value}) or push site in attrspace/server.py",
                )
            if not entry.on_client:
                yield self.finding_at(
                    proto.path, stmt.lineno,
                    f"{name} ({value!r}) has no frame built by "
                    f"attrspace/client.py",
                )


@register_program
class FrameFieldUnreadRule(_WireRule):
    name = "frame-field-unread"
    description = (
        "a wire frame field one side encodes is never read by the other "
        "side (dead protocol surface)"
    )

    def check_schema(self, schema: WireSchema) -> Iterator[Finding]:
        for key, label, entry in _schemas(schema):
            for direction, writes, reads, plumbing, writer, reader in \
                    _directions(key, entry):
                if not writes.fields:
                    continue
                if not reads.fields and not reads.escapes:
                    # the counterpart decodes nothing at all for this
                    # frame kind — protocol-exhaustiveness territory,
                    # not per-field drift
                    continue
                if reads.escapes:
                    continue
                for name in sorted(writes.fields):
                    if name in plumbing or name in reads.fields:
                        continue
                    if waived(key, direction, name):
                        continue
                    use = writes.fields[name]
                    path, line = _site(use, ("<unknown>", 1))
                    yield self.finding_at(
                        path, line,
                        f"{label} {direction} field {name!r} is written by "
                        f"the {writer} but never read by the {reader}",
                    )


@register_program
class FrameFieldPhantomRule(_WireRule):
    name = "frame-field-phantom"
    description = (
        "a wire frame field one side reads is never written by the other "
        "side (silent .get default masking drift)"
    )

    def check_schema(self, schema: WireSchema) -> Iterator[Finding]:
        for key, label, entry in _schemas(schema):
            for direction, writes, reads, plumbing, writer, reader in \
                    _directions(key, entry):
                if not reads.fields or not writes.fields:
                    continue
                for name in sorted(reads.fields):
                    if name in plumbing or name in writes.fields:
                        continue
                    if waived(key, direction, name):
                        continue
                    use = reads.fields[name]
                    path, line = _site(use, ("<unknown>", 1))
                    how = "requires" if use.required else \
                        "silently defaults"
                    yield self.finding_at(
                        path, line,
                        f"{label} {direction} field {name!r} is read by the "
                        f"{reader} ({how}) but the {writer} never writes it",
                    )


def _types_overlap(a: set[str], b: set[str]) -> bool:
    if not a or not b:
        return True  # unknown on either side: no claim
    numeric = {"int", "float"}
    for x in a:
        for y in b:
            if x == y or (x in numeric and y in numeric):
                return True
    return False


@register_program
class FrameFieldTypeMismatchRule(_WireRule):
    name = "frame-field-type-mismatch"
    description = (
        "writer and reader pin incompatible types for the same wire "
        "frame field"
    )

    def check_schema(self, schema: WireSchema) -> Iterator[Finding]:
        for key, label, entry in _schemas(schema):
            for direction, writes, reads, plumbing, writer, reader in \
                    _directions(key, entry):
                for name in sorted(set(writes.fields) & set(reads.fields)):
                    if name in plumbing:
                        continue
                    w, r = writes.fields[name], reads.fields[name]
                    # a reader that tolerates absence tolerates null
                    read_types = set(r.types)
                    if not w.required and read_types:
                        read_types.add("null")
                    if not _types_overlap(w.types, read_types):
                        path, line = _site(r, _site(w, ("<unknown>", 1)))
                        yield self.finding_at(
                            path, line,
                            f"{label} {direction} field {name!r}: {writer} "
                            f"writes {sorted(w.types)} but {reader} expects "
                            f"{sorted(r.types)}",
                        )


def _resolve_error_class(name: str):
    import repro.errors as errors_mod

    return getattr(errors_mod, name, None)


@register_program
class ErrorCodeUnmappedRule(_WireRule):
    name = "error-code-unmapped"
    description = (
        "every TdpError raised on the dispatch path must round-trip "
        "through the wire error maps back to its own class"
    )

    def check_schema(self, schema: WireSchema) -> Iterator[Finding]:
        from repro.errors import TdpError

        errs = schema.errors
        decode = {
            wire: _resolve_error_class(cls_name)
            for wire, cls_name in errs.decode_map.items()
        }
        encode_order = [
            (_resolve_error_class(cls_name), cls_name, wire)
            for cls_name, wire in errs.encode_order
        ]
        map_site = errs.encode_map_site or errs.decode_map_site
        if map_site is None:
            return
        path, line = map_site

        # (a) unresolvable names in either map
        for wire, cls_name in sorted(errs.decode_map.items()):
            if decode[wire] is None:
                yield self.finding_at(
                    *(errs.decode_map_site or map_site),
                    f"_ERROR_TYPES maps {wire!r} to unknown error class "
                    f"{cls_name}",
                )
        for cls, cls_name, wire in encode_order:
            if cls is None:
                yield self.finding_at(
                    path, line,
                    f"_TYPE_NAMES lists unknown error class {cls_name}",
                )

        resolved_order = [(c, n, w) for c, n, w in encode_order if c is not None]

        # (b) encode order: a base class listed before its subclass
        # shadows it (error_fields walks the map with isinstance)
        for i, (cls, cls_name, _) in enumerate(resolved_order):
            for later_cls, later_name, _ in resolved_order[i + 1:]:
                if later_cls is not cls and issubclass(later_cls, cls):
                    yield self.finding_at(
                        path, line,
                        f"_TYPE_NAMES lists {cls_name} before its subclass "
                        f"{later_name}; the subclass can never encode",
                    )

        def encodes_to(cls) -> str | None:
            for mapped_cls, _, wire in resolved_order:
                if issubclass(cls, mapped_cls):
                    return wire
            return None

        # (c) bijection: encoding then decoding must be the identity on
        # every mapped class
        for mapped_cls, cls_name, wire in resolved_order:
            decoded = decode.get(wire)
            if decoded is None:
                yield self.finding_at(
                    path, line,
                    f"{cls_name} encodes to {wire!r} but _ERROR_TYPES has "
                    f"no decoding for it",
                )
            elif decoded is not mapped_cls:
                yield self.finding_at(
                    path, line,
                    f"{cls_name} encodes to {wire!r} which decodes to "
                    f"{decoded.__name__}, not back to {cls_name}",
                )

        # (d) every TdpError raised on the dispatch path round-trips
        for cls_name in sorted(errs.raised):
            cls = _resolve_error_class(cls_name)
            if cls is None or not (isinstance(cls, type)
                                   and issubclass(cls, TdpError)):
                continue
            raise_path, raise_line = errs.raised[cls_name]
            wire = encodes_to(cls)
            if wire is None:
                yield self.finding_at(
                    raise_path, raise_line,
                    f"{cls_name} is raised during dispatch but has no "
                    f"wire error mapping in _TYPE_NAMES",
                )
                continue
            decoded = decode.get(wire)
            if decoded is not None and decoded is not cls \
                    and not issubclass(cls, decoded):
                yield self.finding_at(
                    raise_path, raise_line,
                    f"{cls_name} encodes to {wire!r} but the client decodes "
                    f"that as {decoded.__name__}; the original class is lost",
                )

        # (e) client-synthesized error_type strings must decode
        for wire, (syn_path, syn_line) in sorted(errs.synthesized.items()):
            if wire not in errs.decode_map:
                yield self.finding_at(
                    syn_path, syn_line,
                    f"client synthesizes error_type {wire!r} which "
                    f"_ERROR_TYPES cannot decode",
                )


#: packages whose modules speak the wire; json.dumps/loads of frames is
#: confined to the codec module so the binary codec can swap in later
WIRE_PACKAGES = ("repro.attrspace", "repro.transport", "repro.tdp")

#: modules sanctioned to struct-pack wire bytes: the binary body codec
#: and the length-prefix framing layer.  Nothing else in the wire
#: packages may hand-roll byte packing — the codec seam stays two
#: modules wide.
BINARY_CODEC_MODULES = (
    "repro.attrspace.bincodec",
    "repro.transport.framing",
)


def _as_written(node: ast.AST, origin: str) -> str:
    """``node``'s dotted name, and its origin when an alias renamed it."""
    written = dotted_name(node)
    return origin if written == origin else f"{written} ({origin})"


@register
class RawWireCodecRule(Rule):
    name = "raw-wire-codec"
    description = (
        "encode/decode in wire-facing packages is confined to the "
        "sanctioned codec sites: json.dumps/loads and json's encoder and "
        "scanner to attrspace/protocol, struct packing to "
        "attrspace/bincodec + transport/framing"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.in_package(*WIRE_PACKAGES):
            return
        origins = import_origins(module.tree)
        if module.modname != CODEC_MODULE:
            yield from self._check_json(module, origins)
        if module.modname not in BINARY_CODEC_MODULES:
            yield from self._check_struct(module, origins)

    @staticmethod
    def _calls_of(
        module: ModuleSource, origins: dict[str, str], banned: set[str]
    ) -> Iterator[tuple[ast.Call, str]]:
        """Calls of a ``banned`` dotted name, under any import alias."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                origin = resolve_name(node.func, origins)
                if origin in banned:
                    yield node, _as_written(node.func, origin)

    def _check_json(
        self, module: ModuleSource, origins: dict[str, str]
    ) -> Iterator[Finding]:
        banned = {"json.dumps", "json.loads"}
        for node, offender in self._calls_of(module, origins, banned):
            yield self.finding(
                module, node,
                f"{offender} on the wire path: route through the "
                f"codec in {CODEC_MODULE} instead",
            )
        yield from self._check_json_machinery(module, origins)

    #: json's own encoder and scanner, which only the codec may drive
    _JSON_MACHINERY = ("JSONEncoder", "JSONDecoder", "encoder", "decoder", "scanner")

    def _check_json_machinery(
        self, module: ModuleSource, origins: dict[str, str]
    ) -> Iterator[Finding]:
        machinery = {f"json.{name}" for name in self._JSON_MACHINERY}
        for node in ast.walk(module.tree):
            offender: str | None = None
            if isinstance(node, ast.Attribute):
                origin = resolve_name(node, origins)
                if origin in machinery:
                    offender = _as_written(node, origin)
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                if node.module.startswith("json."):
                    offender = f"from {node.module} import"
                elif node.module == "json":
                    names = [a.name for a in node.names
                             if a.name in self._JSON_MACHINERY]
                    if names:
                        offender = f"from json import {', '.join(names)}"
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names if a.name.startswith("json.")]
                if names:
                    offender = f"import {', '.join(names)}"
            if offender is not None:
                yield self.finding(
                    module, node,
                    f"{offender} on the wire path: json's encoder and "
                    f"scanner belong to the codec in {CODEC_MODULE}",
                )

    _STRUCT_CALLS = ("pack", "unpack", "pack_into", "unpack_from", "Struct")

    def _check_struct(
        self, module: ModuleSource, origins: dict[str, str]
    ) -> Iterator[Finding]:
        banned = {f"struct.{name}" for name in self._STRUCT_CALLS}
        sanctioned = " or ".join(BINARY_CODEC_MODULES)
        for node, offender in self._calls_of(module, origins, banned):
            yield self.finding(
                module, node,
                f"{offender} on the wire path: byte packing belongs "
                f"in {sanctioned}",
            )
