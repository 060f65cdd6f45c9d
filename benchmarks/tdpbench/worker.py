"""Subprocess side of the runner: one workload, or the layer pass.

A scenario leaves seven ``tdp-service-*`` threads and a ``vclock-timers``
thread behind, and the interpreter's heap keeps what earlier work grew,
so every measurement gets a process of its own.  The runner starts this
file with a fixed ``PYTHONHASHSEED`` and the ``TDP_*`` switches unset,
reads one JSON object per line from its standard output, and kills it
if it wedges.

Lines: ``ready`` (set-up time), one ``trial`` per trial with its raw
samples and the CPU probes around it, ``done`` (memory, environment) —
or ``layers`` with every layer metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from measure import (
    HostProbe,
    SpanRecorder,
    clock,
    environment,
    peak_rss_mb,
    pin_to_cpu,
    write_json,
)

#: a trial lasts ``seconds / TRIALS`` (or one operation, if that is
#: longer) on fresh connections; short, so that the probes around it
#: speak for it.  Trials follow each other until ``seconds`` are spent.
TRIALS = 32

#: the warm-up's time limit; its size is the workload's ``warmup_ops``
WARMUP_CAP_SECONDS = 30.0


def emit(event: str, **fields) -> None:
    sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def run_workload(args) -> None:
    cpu = pin_to_cpu(args.cpu)
    from workloads import WORKLOADS, Inputs

    workload = WORKLOADS[args.workload](Inputs(args.seed), args.tiny)
    workload.build()
    # park the set-up's object graph: cyclic collections walking it
    # mid-measurement cost the TCP series ~20 % (benchmarks/conftest.py)
    gc.collect()
    gc.freeze()
    workload.open_trial()
    setup = clock() - args.t0
    host_probe = HostProbe()
    emit("ready", setup_s=setup, cpu=cpu, probe=host_probe())
    if args.probe:
        workload.close_trial()
        workload.teardown()
        return

    recorder = SpanRecorder() if args.trace else None
    if args.tiny:
        warm = workload.run_trial(0.1, None, max(1, workload.warmup_ops // 100))
    else:
        warm = workload.run_trial(WARMUP_CAP_SECONDS, None, workload.warmup_ops)
    # read after the same number of operations on every run: memory the
    # program keeps per operation shows, how fast the host ran does not
    rss_after_warmup = peak_rss_mb()
    emit("trial", index=-1, warm=True, traced=False, **warm.to_json())

    failed = warm.failed
    probe = host_probe()
    index = 0
    started = clock()
    while not failed and clock() - started < args.seconds:
        try:
            workload.close_trial()
            workload.open_trial()
        except Exception as e:
            # no fresh connections: booked as one failed operation, and
            # the run ends as it does after any other
            emit("trial", index=index, warm=False, traced=False,
                 probe_before=probe, probe_after=probe, samples_ms=[], ops=1,
                 failed=1, elapsed_s=0.0, error=f"{type(e).__name__}: {e}")
            failed = 1
            break
        # traced and untraced trials alternate inside one process, so
        # the tracing overhead is an interleaved comparison
        traced = recorder is not None and index % 2 == 0
        before = probe
        trial = workload.run_trial(
            args.seconds / TRIALS, recorder if traced else None)
        probe = host_probe()
        emit("trial", index=index, warm=False, traced=traced,
             probe_before=before, probe_after=probe, **trial.to_json())
        failed = trial.failed
        index += 1
    emit("done", peak_rss_mb=rss_after_warmup, peak_rss_mb_at_exit=peak_rss_mb(),
         env=environment(), operation=workload.operation, aborted=bool(failed),
         lost_continues=getattr(workload, "lost_continues", 0))
    if recorder is not None:
        write_json(args.spans, recorder.to_json())
    if failed:
        # one failed operation ends the run: the world it ran in cannot
        # be trusted (a hung gang keeps the pool's machines claimed) and
        # its teardown may not return.  The runner books the rest.
        os._exit(0)
    workload.close_trial()
    workload.teardown()


def run_layers(args) -> None:
    cpu = pin_to_cpu(args.cpu)
    import layers

    recorder = SpanRecorder()
    metrics, notes = layers.measure_all(recorder, args.seed, args.tiny)
    write_json(args.spans, recorder.to_json())
    emit("layers", metrics=metrics, notes=notes, cpu=cpu,
         peak_rss_mb=peak_rss_mb())


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=["workload", "layers"], required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--t0", type=float, default=clock())
    parser.add_argument("--spans")
    parser.add_argument("--cpu", type=int, required=True)
    args = parser.parse_args()
    if args.mode == "workload":
        run_workload(args)
    else:
        run_layers(args)


if __name__ == "__main__":
    main()
