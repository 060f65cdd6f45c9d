"""The m x n vs m + n integration-effort model (paper Section 1).

"each run-time tool must be individually ported to run under a
particular job management system; for m tools and n environments, the
problem becomes an m x n effort, rather than the hoped-for m + n
effort."

:class:`EffortModel` turns that argument into numbers, parameterized by
per-port effort measured from THIS repository: the size of one
hard-wired integration (the direct baseline) versus the size of the
one-time TDP adapters per tool and per RM.  :func:`count_adapter_lines`
measures the adapter code so the Section 4.3 claim ("less than 500
lines") is checkable against our own pilot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path


def count_source_lines(path: Path) -> int:
    """Non-blank, non-comment, non-docstring source lines of one file.

    This approximates the paper's "lines of code" (they counted modified
    C statements, not comments).
    """
    text = path.read_text()
    tree = ast.parse(text)
    doc_lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = getattr(node, "body", [])
            if body and isinstance(body[0], ast.Expr) and isinstance(
                body[0].value, ast.Constant
            ) and isinstance(body[0].value.value, str):
                expr = body[0]
                for line in range(expr.lineno, (expr.end_lineno or expr.lineno) + 1):
                    doc_lines.add(line)
    count = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or lineno in doc_lines:
            continue
        count += 1
    return count


def count_region_lines(path: Path, qualnames: list[str]) -> int:
    """Source lines of the named defs/classes in one file.

    ``qualnames`` are dotted paths like ``"Starter._write_tool_output"``;
    lines are counted with the same rules as :func:`count_source_lines`
    (no blanks, comments, or docstrings).
    """
    text = path.read_text()
    tree = ast.parse(text)

    def walk(node, prefix=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{prefix}{child.name}"
                yield qual, child
                yield from walk(child, prefix=qual + ".")

    wanted_spans: list[tuple[int, int]] = []
    found: set[str] = set()
    for qual, node in walk(tree):
        if qual in qualnames:
            found.add(qual)
            wanted_spans.append((node.lineno, node.end_lineno or node.lineno))
    missing = set(qualnames) - found
    if missing:
        raise ValueError(f"regions not found in {path}: {sorted(missing)}")

    lines = text.splitlines()
    count = 0
    for start, end in wanted_spans:
        region = "\n".join(lines[start - 1 : end])
        # Reuse the docstring/comment-aware counter on the region alone.
        # Dedent so ast.parse accepts a method body extracted mid-class.
        import textwrap

        region_path_text = textwrap.dedent(region)
        try:
            region_tree = ast.parse(region_path_text)
        except SyntaxError:
            # Fall back to raw non-blank/non-comment counting.
            for line in region.splitlines():
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    count += 1
            continue
        doc_lines: set[int] = set()
        for node in ast.walk(region_tree):
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                body = getattr(node, "body", [])
                if body and isinstance(body[0], ast.Expr) and isinstance(
                    body[0].value, ast.Constant
                ) and isinstance(body[0].value.value, str):
                    expr = body[0]
                    for line in range(
                        expr.lineno, (expr.end_lineno or expr.lineno) + 1
                    ):
                        doc_lines.add(line)
        for lineno, line in enumerate(region_path_text.splitlines(), start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith("#") and lineno not in doc_lines:
                count += 1
    return count


#: The code that corresponds to the pilot's "modified lines": the
#: TDP-specific additions to our Condor (submit-file extensions and the
#: starter's tool-launch path), to our Paradyn (the TDP entry mode), and
#: the registration glue — everything a non-TDP build would not contain.
INTEGRATION_REGIONS: dict[str, list[str]] = {
    "parador/adapters.py": ["register_paradynd", "make_tool_registry"],
    "condor/starter.py": ["Starter._write_tool_output"],
    "condor/mpi_universe.py": ["RankLaunch.launch_tool"],
    "condor/submit.py": ["ToolDaemonSpec", "_parse_bool"],
    "condor/tools.py": ["ToolLaunchContext"],
    "paradyn/daemon.py": [
        "ParadynDaemon.run",
        "ParadyndArgs.tdp_mode",
        "launch_paradynd",
    ],
}


def count_adapter_lines(package_root: Path | None = None) -> dict[str, int]:
    """Measured integration sizes: {relative_path: source_lines, 'total': n}.

    This is the reproduction's analogue of the paper's "total code
    involved was less than 500 lines": the regions listed in
    :data:`INTEGRATION_REGIONS` are exactly the TDP-aware additions.
    """
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).parent
    sizes: dict[str, int] = {}
    for rel, regions in INTEGRATION_REGIONS.items():
        sizes[rel] = count_region_lines(package_root / rel, regions)
    sizes["total"] = sum(sizes.values())
    return sizes


@dataclass
class EffortModel:
    """Integration effort in source lines for m tools and n RMs.

    * Without TDP: every (tool, RM) pair needs its own port of size
      ``port_cost`` -> ``m * n * port_cost``.
    * With TDP: each tool is adapted once (``tool_adapter_cost``) and
      each RM once (``rm_adapter_cost``) ->
      ``m * tool_adapter_cost + n * rm_adapter_cost``.
    """

    port_cost: int
    tool_adapter_cost: int
    rm_adapter_cost: int

    def without_tdp(self, m: int, n: int) -> int:
        return m * n * self.port_cost

    def with_tdp(self, m: int, n: int) -> int:
        return m * self.tool_adapter_cost + n * self.rm_adapter_cost

    def savings_factor(self, m: int, n: int) -> float:
        with_ = self.with_tdp(m, n)
        return self.without_tdp(m, n) / with_ if with_ else float("inf")

    def crossover(self, max_dim: int = 100) -> tuple[int, int] | None:
        """Smallest symmetric (m, n) where TDP wins, or None below max_dim."""
        for k in range(1, max_dim + 1):
            if self.with_tdp(k, k) < self.without_tdp(k, k):
                return (k, k)
        return None

    def table(self, dims: list[int]) -> list[dict[str, float]]:
        """Rows for the EFFORT bench: m=n sweeps."""
        rows = []
        for k in dims:
            rows.append(
                {
                    "m=n": k,
                    "without_tdp": self.without_tdp(k, k),
                    "with_tdp": self.with_tdp(k, k),
                    "savings": round(self.savings_factor(k, k), 2),
                }
            )
        return rows


def measured_model(package_root: Path | None = None) -> EffortModel:
    """EffortModel parameterized from this repository's own code sizes.

    ``port_cost`` is the size of the hard-wired direct integration;
    adapter costs split the measured Parador adapter between the tool
    and RM sides (the paper's <500 modified lines covered both).
    """
    if package_root is None:
        import repro

        package_root = Path(repro.__file__).parent
    port = count_source_lines(package_root / "baselines" / "direct.py")
    sizes = count_adapter_lines(package_root)
    tool_side = sizes.get("paradyn/daemon.py", 0) + sizes.get(
        "parador/adapters.py", 0
    )
    rm_side = sizes["total"] - tool_side
    return EffortModel(
        port_cost=max(port, 1),
        tool_adapter_cost=max(tool_side, 1),
        rm_adapter_cost=max(rm_side, 1),
    )
