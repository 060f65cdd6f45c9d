#!/usr/bin/env python3
"""TRAJECTORY — append one commit's tdpbench entry to ``BENCH_tdpbench.json``.

Runs ``benchmarks/tdpbench/run.py --workload W --seed S --seconds 10
--trace 0`` in a checkout for each workload ``BENCHMARK.json`` names,
over three seeds, one run at a time, and reads each run's last line (its
result as one JSON object).  The entry it appends holds the checkout's
git sha, whether its tracked files differed from that sha (``dirty``:
the entry then measures an uncommitted change on top of it), the host
(CPU count, Python version), and, per workload and end-to-end metric,
the median and quartiles over the seeds, beside the failed and attempted
operations summed over them.

    python3 benchmarks/trajectory.py                    this checkout
    python3 benchmarks/trajectory.py --checkout DIR     another one

``--checkout`` measures another checkout (a clone at the parent commit,
say) with its own runner, and still appends to this repo's file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(REPO, "BENCH_tdpbench.json")
SEEDS = (1, 2, 3)
SECONDS = 10


def git(checkout: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", checkout, *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def run_once(checkout: str, workload: str, seed: int) -> dict:
    """One tdpbench run; its result object (the last line it prints)."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/tdpbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(results: list[dict], metrics: list[str]) -> dict:
    """One workload's runs: per metric the median and quartiles, and the
    failed and attempted operations summed over the runs."""
    summary = {
        name: quartiles([r["metrics"][name]["value"] for r in results])
        for name in metrics
    }
    summary["failed"] = sum(r["failed"] for r in results)
    summary["attempted"] = sum(r["attempted"] for r in results)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", default=REPO)
    args = parser.parse_args()
    checkout = os.path.abspath(args.checkout)
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = [m["name"] for m in spec["end_to_end"]]
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in SEEDS:
            results.append(run_once(checkout, workload, seed))
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name} {results[-1]['metrics'][name]['value']:.4g}"
                for name in metrics), flush=True)
        workloads[workload] = summarize(results, metrics)
    entry = {
        "sha": git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "seeds": list(SEEDS),
        "seconds": SECONDS,
        "workloads": workloads,
    }
    history = []
    if os.path.exists(OUT):
        with open(OUT) as f:
            history = json.load(f)
    history.append(entry)
    with open(OUT, "w") as f:
        json.dump(history, f, indent=1)
        f.write("\n")
    print(f"appended entry {len(history)} for {entry['sha'][:12]} to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
