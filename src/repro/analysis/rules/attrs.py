"""raw-attribute-literal: daemon code spells attribute names via Attr.

Paper Section 3.2: "there is a standard list of attribute names for the
set of data commonly exchanged between the different daemons (every RT
and RM must understand this set)".  That list is
:class:`repro.tdp.wellknown.Attr`; a raw ``"proc.17.status"`` string in
daemon code bypasses the single point of truth, so a protocol rename
becomes a silent wire incompatibility.

Two detection layers:

* any string literal (or f-string head) using a reserved dotted shape —
  ``proc.``/``ctl.req.``/``ctl.rep.``/``presence.``/``fault.``/``aux.`` prefixes
  or the exact names ``rt.frontend``/``rm.proxy``/``stdio.endpoint``;
* the short standard names (``pid``, ``executable_name``, ``app_host``,
  ``app_args``) only when passed as the attribute argument of an
  attribute-space call — they are too common as dict keys to ban
  outright.

Scope: daemon packages only (condor, paradyn, parador, debugger, tdp);
``repro.tdp.wellknown`` is the definition site and exempt; docstrings
never fire.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleSource, Rule, register

_SCOPED_PACKAGES = (
    "repro.condor",
    "repro.paradyn",
    "repro.parador",
    "repro.debugger",
    "repro.tdp",
)
_EXEMPT_MODULES = {"repro.tdp.wellknown"}

_RESERVED_PREFIXES = ("proc.", "ctl.req.", "ctl.rep.", "presence.", "fault.", "aux.")
_RESERVED_EXACT = {"rt.frontend", "rm.proxy", "stdio.endpoint"}
_STANDARD_SHORT = {"pid", "executable_name", "app_host", "app_args"}

#: call shapes whose attribute argument is checked for short names;
#: value is the positional index of the attribute parameter
_ATTR_ARG_FUNCS = {
    "tdp_put": 1, "tdp_get": 1, "tdp_try_get": 1, "tdp_remove": 1,
    "tdp_async_get": 1, "tdp_async_put": 1, "tdp_subscribe": 1,
}
_ATTR_ARG_METHODS = {
    "put": 0, "try_get": 0, "add_waiter": 0,
    "async_get": 0, "async_put": 0, "subscribe": 0,
}


def _reserved_shape(value: str) -> bool:
    return value in _RESERVED_EXACT or value.startswith(_RESERVED_PREFIXES)


@register
class RawAttributeLiteral(Rule):
    name = "raw-attribute-literal"
    description = (
        "TDP attribute names in daemon code must come from "
        "repro.tdp.wellknown.Attr, not string literals"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.in_package(*_SCOPED_PACKAGES):
            return
        if module.modname in _EXEMPT_MODULES:
            return
        # Segments of an f-string are Constant nodes too; the JoinedStr
        # branch below reports those, so skip them here to avoid doubles.
        fstring_segments = {
            id(v)
            for node in ast.walk(module.tree)
            if isinstance(node, ast.JoinedStr)
            for v in node.values
        }
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) in fstring_segments:
                    continue
                if _reserved_shape(node.value) and not module.is_docstring(node):
                    yield self.finding(
                        module,
                        node,
                        f"raw attribute literal {node.value!r}; use "
                        "repro.tdp.wellknown.Attr",
                    )
            elif isinstance(node, ast.JoinedStr):
                head = node.values[0] if node.values else None
                if isinstance(head, ast.Constant) and isinstance(head.value, str) \
                        and head.value.startswith(_RESERVED_PREFIXES):
                    yield self.finding(
                        module,
                        node,
                        f"raw attribute f-string starting {head.value!r}; "
                        "use the Attr helper for this name family",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node)

    def _check_call(self, module: ModuleSource, call: ast.Call) -> Iterator[Finding]:
        func = call.func
        if isinstance(func, ast.Name):
            idx = _ATTR_ARG_FUNCS.get(func.id)
        elif isinstance(func, ast.Attribute):
            idx = _ATTR_ARG_METHODS.get(func.attr)
        else:
            idx = None
        if idx is None or idx >= len(call.args):
            return
        arg = call.args[idx]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str) \
                and arg.value in _STANDARD_SHORT:
            yield self.finding(
                module,
                arg,
                f"standard attribute {arg.value!r} passed as a literal; "
                "use repro.tdp.wellknown.Attr",
            )
