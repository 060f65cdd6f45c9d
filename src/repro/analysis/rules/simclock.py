"""wall-clock-in-sim: the simulated cluster runs on the sim clock.

Performance results in ``repro.sim`` and ``repro.condor`` are virtual
(the kernel charges virtual CPU cost per operation) so experiments are
deterministic.  A single ``time.time()``/``time.sleep()`` in those
packages silently couples results to host load.  Code needing a clock
takes a :class:`repro.util.clock.Clock` instead.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import (
    Finding,
    ModuleSource,
    Rule,
    import_origins,
    register,
    resolve_name,
)

_SCOPED_PACKAGES = ("repro.sim", "repro.condor")
_BANNED = {"time", "sleep", "monotonic", "perf_counter"}


@register
class WallClockInSim(Rule):
    name = "wall-clock-in-sim"
    description = (
        "time.time/time.sleep/time.monotonic are banned under repro.sim "
        "and repro.condor; inject a repro.util.clock.Clock"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if not module.in_package(*_SCOPED_PACKAGES):
            return
        origins = import_origins(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                origin = resolve_name(node, origins)
                if origin is not None and origin.startswith("time.") \
                        and origin.split(".", 1)[1] in _BANNED:
                    yield self.finding(
                        module,
                        node,
                        f"{origin} in simulated-cluster code; use "
                        "repro.util.clock (the sim runs on virtual time)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                banned = [a.name for a in node.names if a.name in _BANNED]
                if banned:
                    yield self.finding(
                        module,
                        node,
                        f"importing {', '.join(banned)} from time in "
                        "simulated-cluster code; use repro.util.clock",
                    )
