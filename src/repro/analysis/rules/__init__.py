"""Built-in rule battery.  Importing this package registers every rule."""

from __future__ import annotations

from repro.analysis.rules import (
    attrs,
    concurrency,
    guards,
    handles,
    locks,
    obsrules,
    simclock,
    threads,
    wire,
)

__all__ = [
    "attrs",
    "concurrency",
    "guards",
    "handles",
    "locks",
    "obsrules",
    "simclock",
    "threads",
    "wire",
]
