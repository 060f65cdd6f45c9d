#!/usr/bin/env python3
"""tdpbench: the repo's end-to-end and per-layer benchmark.

    python3 benchmarks/tdpbench/run.py                      every workload
    python3 benchmarks/tdpbench/run.py --workload NAME --seed N \\
            --seconds S --trace 0|1                          one run (the contract)
    python3 benchmarks/tdpbench/run.py --aa N               N sets; do they agree?
    python3 benchmarks/tdpbench/run.py --selfcheck          names, units, finiteness

Each workload runs in a subprocess of its own (``worker.py``); this file
starts it, watches it, and turns its raw trials into the metrics that
``BENCHMARK.json`` names.  With ``--trace 0`` the metrics are the
end-to-end ones, measured with tracing off; with ``--trace 1`` they are
the per-layer ones, from a layer pass plus a run of the workload whose
trials alternate between traced and untraced.  The last line of output
is the result as one JSON object.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
from statistics import median

from measure import (
    REFERENCE_PROBE_S,
    clock,
    environment,
    percentile,
    speed_factor,
    spread_share,
    write_json,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

#: fresh subprocesses that only set up and exit; with the measuring
#: subprocess itself they give setup_s five samples per run
SETUP_PROBES = 4

#: a run must end well inside the contract's 180 s
RUN_BUDGET_SECONDS = 150.0

NAME = re.compile(r"[A-Za-z0-9_.-]+")


class BenchError(Exception):
    """The run produced no result (as opposed to a result with failures)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    for switch in ("TDP_OBS", "TDP_SANITIZE", "TDP_FAULTPLAN"):
        env.pop(switch, None)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def scaled_samples(trial: dict) -> list[float]:
    """A trial's latencies stated at the reference host speed."""
    factor = trial["speed_factor"]
    return [s * factor for s in trial["samples_ms"]]


def take_json(path: str):
    """Load a worker's span file and remove it."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    os.remove(path)
    return payload


def choose_cpu() -> int:
    """The worker's CPU (the highest allowed); the runner moves off it."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) > 1:
        try:
            os.sched_setaffinity(0, set(allowed[:-1]))
        except OSError:
            pass  # not permitted here: the worker's own pin is tried all the same
    return allowed[-1]


class Runner:
    def __init__(self, spec: dict, tiny: bool = False):
        self.spec = spec
        self.tiny = tiny
        # a selfcheck measures nothing: its workers run side by side, one
        # CPU each in turn, and the runner stays where it is
        self.cpus = itertools.cycle(
            sorted(os.sched_getaffinity(0)) if tiny else [choose_cpu()])
        self.env = worker_env()
        self.units = {m["name"]: m["unit"]
                      for m in spec["end_to_end"] + spec["per_layer"]}

    # -- subprocesses -------------------------------------------------------------

    def spawn(self, arguments: list[str], deadline: float):
        """Run one worker; returns (events, wedged).  A worker still
        alive at the deadline is killed — the run never hangs."""
        command = [sys.executable, WORKER, *arguments, "--t0", repr(clock()),
                   "--cpu", str(next(self.cpus))]
        if self.tiny:
            command.append("--tiny")
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, env=self.env,
                                cwd=HERE, text=True)
        events: list[dict] = []

        def read() -> None:
            for line in proc.stdout:
                events.append(json.loads(line))

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        wedged = False
        try:
            proc.wait(timeout=max(1.0, deadline - clock()))
        except subprocess.TimeoutExpired:
            wedged = True
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        if not wedged and proc.returncode != 0:
            raise BenchError(f"worker {' '.join(arguments)} exited "
                             f"{proc.returncode}")
        return events, wedged

    # -- one run ---------------------------------------------------------------------

    def run(self, workload: str, seed: int, seconds: float, trace: bool,
            layers: dict | None = None) -> dict:
        deadline = clock() + RUN_BUDGET_SECONDS
        base = ["--mode", "workload", "--workload", workload, "--seed", str(seed),
                "--seconds", repr(seconds)]
        load_at_start = environment()["loadavg_1m"]
        if trace:
            return self.run_traced(workload, seed, seconds, base, deadline,
                                   load_at_start, layers)
        setups = []
        for _ in range(0 if self.tiny else SETUP_PROBES):
            events, wedged = self.spawn([*base, "--probe"], deadline)
            if wedged or not events:
                raise BenchError(f"{workload}: set-up did not finish")
            setups.append(events[0])
        events, wedged = self.spawn(base, deadline)
        record = self.digest(workload, seed, seconds, events, wedged,
                             load_at_start, setups)
        trials = record["trials"]
        pooled = sorted(s for t in trials for s in scaled_samples(t))
        if not pooled:
            raise BenchError(f"{workload}: no operation completed")
        record["metrics"] = {
            "op_ms_p50": percentile(pooled, 0.50),
            "op_ms_p90": percentile(pooled, 0.90),
            "ops_per_s": median(
                (t["ops"] - t["failed"]) / t["elapsed_s"] / t["speed_factor"]
                for t in trials if t["elapsed_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "setup_s": median(record["setup_samples_s"]),
        }
        write_json(os.path.join(OUT, f"{workload}.json"), record)
        return record

    def layer_pass(self, seed: int, deadline: float) -> dict:
        """Every layer metric, from a subprocess of its own."""
        spans = os.path.join(OUT, "trace.layers.part.json")
        events, wedged = self.spawn(
            ["--mode", "layers", "--seed", str(seed), "--spans", spans], deadline)
        if wedged or not events or events[-1]["event"] != "layers":
            raise BenchError("the layer pass did not finish")
        return {**events[-1], "spans": take_json(spans)}

    def run_traced(self, workload, seed, seconds, base, deadline, load_at_start,
                   layers) -> dict:
        if layers is None:
            layers = self.layer_pass(seed, deadline)
        spans = os.path.join(OUT, f"trace.{workload}.part.json")
        events, wedged = self.spawn(
            [*base, "--trace", "1", "--spans", spans], deadline)
        record = self.digest(workload, seed, seconds, events, wedged,
                             load_at_start, [])
        medians = {flag: [median(scaled_samples(t)) for t in record["trials"]
                          if t["traced"] is flag and t["samples_ms"]]
                   for flag in (True, False)}
        if not medians[True] or not medians[False]:
            raise BenchError(f"{workload}: no operation completed")
        untraced = sorted(s for t in record["trials"] if not t["traced"]
                          for s in scaled_samples(t))
        metrics = dict(layers["metrics"])
        metrics["workload.op_ms_p99"] = percentile(untraced, 0.99)
        metrics["workload.trial_p50_spread"] = (
            max(medians[False]) / min(medians[False]))
        metrics["workload.trace_overhead_share"] = (
            median(medians[True]) / median(medians[False]) - 1.0)
        record["metrics"] = metrics
        record["layer_notes"] = layers["notes"]
        record["op_ms_p50_untraced"] = percentile(untraced, 0.50)
        write_json(os.path.join(OUT, "trace.json"),
                   {"workload": workload,
                    "parts": [layers["spans"], take_json(spans)]})
        write_json(os.path.join(OUT, f"{workload}.traced.json"), record)
        return record

    def digest(self, workload, seed, seconds, events, wedged, load_at_start,
               setups) -> dict:
        """Raw trials into a record; failures and a kill are booked here."""
        ready = next((e for e in events if e["event"] == "ready"), None)
        done = next((e for e in events if e["event"] == "done"), None)
        if ready is None:
            raise BenchError(f"{workload}: set-up did not finish")
        setups = [*setups, ready]
        trials = [e for e in events if e["event"] == "trial" and not e["warm"]]
        for t in trials:
            t["speed_factor"] = speed_factor(t["probe_before"], t["probe_after"])
        attempted = sum(t["ops"] for t in trials)
        failed = sum(t["failed"] for t in trials)
        lost = 0
        if wedged or done is None or done["aborted"]:
            # a failed operation ended the run, or the watchdog did:
            # book what the rest of the run would have attempted, at the
            # rate observed so far (at least one)
            elapsed = sum(t["elapsed_s"] for t in trials)
            rate = attempted / elapsed if elapsed else 0.0
            lost = max(1, int(rate * max(0.0, seconds - elapsed)))
        env = environment()
        env["loadavg_1m_at_start"] = load_at_start
        if done is not None:
            env["worker"] = done["env"]
        return {
            "workload": workload,
            "seed": seed,
            "operation": done["operation"] if done else None,
            "correct": failed == 0 and lost == 0,
            "attempted": attempted + lost,
            "failed": failed + lost,
            "failed_share": (failed + lost) / max(1, attempted + lost),
            "wedged": wedged,
            "lost_continues": done["lost_continues"] if done else None,
            "peak_rss_mb": done["peak_rss_mb"] if done else float("nan"),
            "peak_rss_mb_at_exit": done["peak_rss_mb_at_exit"] if done else None,
            "pinned_cpu": ready["cpu"],
            "env": env,
            "reference_probe_s": REFERENCE_PROBE_S,
            "setup_samples_s": [
                s["setup_s"] * speed_factor(s["probe"], s["probe"])
                for s in setups],
            "setup_samples_raw_s": [s["setup_s"] for s in setups],
            "trial_medians_ms": [
                median(scaled_samples(t)) if t["samples_ms"] else None
                for t in trials],
            "trial_medians_raw_ms": [
                median(t["samples_ms"]) if t["samples_ms"] else None
                for t in trials],
            # raw samples; scale by the trial's speed_factor
            "trials": trials,
            "warmup": [e for e in events if e["event"] == "trial" and e["warm"]],
        }

    # -- reporting -------------------------------------------------------------------

    def report(self, record: dict, trace: bool) -> dict:
        """Print every metric by name with its unit; returns the result
        object of the contract."""
        workload = record["workload"]
        print(f"workload {workload}  seed {record['seed']}  "
              f"operation: {record['operation']}")
        metrics = {}
        for name, value in record["metrics"].items():
            unit = self.units[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:40s} {value:14.6g} {unit}")
        print(f"  {'failed_share':40s} {record['failed_share']:14.6g} ratio  "
              f"({record['failed']} of {record['attempted']})")
        if trace:
            self.report_budgets(record)
        return {"correct": record["correct"], "attempted": record["attempted"],
                "failed": record["failed"], "metrics": metrics}

    @staticmethod
    def report_budgets(record: dict) -> None:
        m, notes = record["metrics"], record["layer_notes"]
        pilot = notes["pilot_budget"]
        print(f"  pilot budget: steps sum {pilot['steps_sum_ms']:.3f} ms, traced "
              f"launch p50 {pilot['traced_launch_ms_p50']:.3f} ms over "
              f"{pilot['launches']} launches, gap {pilot['gap_share']:+.2%}")
        if record["workload"] != "rpc_closed_tcp":
            return
        codec = 2 * (m["bincodec.encode_us"] + m["bincodec.decode_us"])
        rows = [
            ("codec: 2 x (bincodec.encode + decode)", codec),
            ("framing beyond the codec, request + reply",
             2 * notes["put_framing_us"] - codec),
            ("store.put_us", m["store.put_us"]),
            ("loop hop: eventloop.ping_rtt_us less its own framing",
             m["eventloop.ping_rtt_us"] - 2 * notes["ping_framing_us"]),
            ("server.dispatch_residual_us", m["server.dispatch_residual_us"]),
        ]
        total = sum(value for _label, value in rows)
        op_us = record["op_ms_p50_untraced"] * 1e3
        print("  rpc_closed_tcp budget (us):")
        for label, value in rows:
            print(f"    {label:56s} {value:9.3f}")
        print(f"    {'attributed (= server.tcp_put_rtt_us)':56s} {total:9.3f}")
        print(f"    {'op_ms_p50, untraced trials':56s} {op_us:9.3f}")
        print(f"    {'unattributed_share':56s} {(op_us - total) / op_us:9.3f}")


# -- modes ----------------------------------------------------------------------------


def run_contract(runner: Runner, args) -> int:
    record = runner.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = runner.report(record, bool(args.trace))
    print(json.dumps(result))
    return 0


def run_all(runner: Runner, args) -> int:
    ok = True
    for workload in (w["name"] for w in runner.spec["workloads"]):
        record = runner.run(workload, args.seed, args.seconds, bool(args.trace))
        runner.report(record, bool(args.trace))
        ok = ok and record["correct"]
    return 0 if ok else 1


def run_aa(runner: Runner, args) -> int:
    """N full sets back to back.  Every end-to-end metric must agree with
    itself on every workload: no set further from the sets' median than
    the metric's own bound."""
    bounds = {m["name"]: m["bound"] for m in runner.spec["end_to_end"]}
    values: dict[tuple[str, str], list[float]] = {}
    failed = 0
    for index in range(args.aa):
        for workload in (w["name"] for w in runner.spec["workloads"]):
            record = runner.run(workload, args.seed + index, args.seconds, False)
            failed += record["failed"]
            for name, value in record["metrics"].items():
                values.setdefault((workload, name), []).append(value)
            print(f"set {index + 1}/{args.aa} {workload}: " + "  ".join(
                f"{n}={v:.5g}" for n, v in record["metrics"].items()), flush=True)
    print("\n| workload | metric | median | furthest set | IQR / median "
          "| bound | agrees |\n|---|---|---|---|---|---|---|")
    ok = failed == 0
    for (workload, name), series in values.items():
        mid = median(series)
        furthest = max(abs(v - mid) for v in series) / mid
        iqr = f"{spread_share(series):.1%}" if len(series) >= 4 else "n/a"
        agrees = furthest <= bounds[name]
        ok = ok and agrees
        print(f"| {workload} | {name} | {mid:.5g} | {furthest:.1%} | {iqr} | "
              f"{bounds[name]:.0%} | {'yes' if agrees else 'NO'} |")
    print(f"\nfailed operations over all sets: {failed}")
    write_json(os.path.join(OUT, "aa.json"),
               {f"{w}/{n}": s for (w, n), s in values.items()})
    return 0 if ok else 1


def run_selfcheck(spec: dict) -> int:
    """Tiny sizes, traced and untraced: every name in BENCHMARK.json is
    emitted exactly once with a unit and a finite value, and nothing is
    emitted that the file does not list."""
    runner = Runner(spec, tiny=True)
    problems = []
    listed = [w["name"] for w in spec["workloads"]]
    for kind in ("end_to_end", "per_layer"):
        listed += [m["name"] for m in spec[kind]]
    for name in listed:
        if not NAME.fullmatch(name) or listed.count(name) != 1:
            problems.append(f"name {name!r} is malformed or listed twice")

    def check(workload: str, layers) -> None:
        trace = layers is not None
        record = runner.run(workload, 1, 0.4, trace,
                            layers.result() if trace else None)
        expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        emitted = list(record["metrics"])
        for name in expected:
            if emitted.count(name) != 1:
                problems.append(f"{workload} trace={int(trace)}: {name} emitted "
                                f"{emitted.count(name)} times")
            elif not math.isfinite(record["metrics"][name]):
                problems.append(f"{workload} trace={int(trace)}: {name} not finite")
        for name in emitted:
            if name not in expected:
                problems.append(f"{workload} trace={int(trace)}: {name} is not "
                                f"in BENCHMARK.json")
        if not record["correct"]:
            problems.append(f"{workload} trace={int(trace)}: "
                            f"{record['failed']} operations failed")

    # one layer pass serves all seven traced checks
    with concurrent.futures.ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        layers = pool.submit(runner.layer_pass, 1, clock() + RUN_BUDGET_SECONDS)
        jobs = [pool.submit(check, w["name"], None) for w in spec["workloads"]]
        jobs += [pool.submit(check, w["name"], layers) for w in spec["workloads"]]
        for job in jobs:
            job.result()
    for problem in problems:
        print("selfcheck:", problem)
    print(f"selfcheck: {len(listed)} names, "
          f"{'ok' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--aa", type=int, metavar="N")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("tdpbench: no src/repro beside the benchmark; nothing to measure",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {', '.join(names)}")
    try:
        if args.selfcheck:
            return run_selfcheck(spec)
        runner = Runner(spec)
        if args.aa:
            return run_aa(runner, args)
        if args.workload:
            return run_contract(runner, args)
        return run_all(runner, args)
    except BenchError as e:
        print(f"tdpbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
