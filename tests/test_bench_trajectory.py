"""The committed tdpbench trajectory (``BENCH_tdpbench.json``, written by
``benchmarks/trajectory.py``) is whole: every entry parses and names
every workload and end-to-end metric ``BENCHMARK.json`` declares.  Reads
the files only; it runs no benchmark."""

import json
import math
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_every_entry_names_every_workload_and_metric():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    entries = json.loads((REPO_ROOT / "BENCH_tdpbench.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    assert len(entries) >= 2, "the parent's entry and its successor's"
    for entry in entries:
        assert len(entry["sha"]) == 40 and isinstance(entry["dirty"], bool)
        assert entry["host"]["cpus"] >= 1 and entry["host"]["python"]
        assert set(entry["workloads"]) == workloads, entry["sha"]
        for workload, summary in entry["workloads"].items():
            assert set(summary) == metrics | {"failed", "attempted"}, workload
            assert 0 <= summary["failed"] <= summary["attempted"]
            for name in metrics:
                stats = summary[name]
                assert all(math.isfinite(stats[k]) for k in ("q1", "median", "q3"))
                assert stats["q1"] <= stats["median"] <= stats["q3"], (workload, name)
